//! The ILP-based register allocator (§5–§10): model data, candidate
//! pruning, model generation, solving, solution extraction, and the
//! staged fallback ladder that makes allocation total.

pub mod candidates;
pub mod extract;
pub mod facts;
pub mod greedy;
pub mod model;
pub mod staged;
pub mod verify;

pub use candidates::{clone_groups, prune, unpruned, Candidates, IlpBank};
pub use extract::{extract, ExtractError, Placed, SPILL_BASE};
pub use facts::{build as build_facts, Fact, Facts, PointId};
pub use model::{
    build_model, move_cost, solve, solve_with, AllocConfig, AllocStats, Assignment, BankModel, Fig6,
};
pub use staged::{AllocQuality, FallbackPolicy};
pub use verify::verify;

use crate::color::{assign_ab, ColorStats};
use crate::freq;
use ixp_machine::{Instr, PhysReg, Program, Temp};

/// Everything the allocator produces for one program.
pub struct Allocation {
    /// Final machine code (validated).
    pub prog: Program<PhysReg>,
    /// ILP statistics (Figure 6/7 data).
    pub stats: AllocStats,
    /// Coloring statistics.
    pub color_stats: ColorStats,
    /// Which fallback stage produced this allocation and how good it is.
    pub quality: AllocQuality,
}

/// Allocator failure.
#[derive(Debug)]
pub enum AllocError {
    /// The ILP was infeasible or the solver failed.
    Solver(ilp::MilpError),
    /// Solution extraction hit an inconsistency.
    Extract(ExtractError),
    /// A/B coloring failed.
    Color(crate::color::ColorError),
    /// The final code violates machine rules (internal bug).
    Invalid(Vec<ixp_machine::Violation>),
    /// The greedy fallback allocator hit a constraint it cannot satisfy
    /// (only possible on inputs the exact model also rejects).
    Greedy(String),
    /// The allocation verifier found violations (internal bug; debug
    /// builds only).
    Verify(Vec<String>),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Solver(e) => write!(f, "ILP solver: {e}"),
            AllocError::Extract(e) => write!(f, "{e}"),
            AllocError::Color(e) => write!(f, "{e}"),
            AllocError::Invalid(vs) => {
                writeln!(f, "generated code violates machine rules:")?;
                for v in vs {
                    writeln!(f, "  {v}")?;
                }
                Ok(())
            }
            AllocError::Greedy(msg) => write!(f, "greedy allocation: {msg}"),
            AllocError::Verify(vs) => {
                writeln!(f, "allocation fails verification:")?;
                for v in vs {
                    writeln!(f, "  {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Run the full allocator on a virtual-register program (no telemetry;
/// see [`allocate_solved_with`]).
///
/// # Errors
///
/// See [`AllocError`]; `Solver(Infeasible)` on a well-formed program means
/// the configuration cannot allocate it (e.g. spilling disabled under
/// pressure). Under the default [`FallbackPolicy::Ladder`], budget
/// exhaustion is *not* an error: the allocator degrades through
/// relaxations down to the greedy fallback (see [`staged`]).
pub fn allocate(prog: &Program<Temp>, cfg: &AllocConfig) -> Result<Allocation, AllocError> {
    allocate_solved_with(prog, cfg, &nova_obs::Obs::noop()).map(|(alloc, _)| alloc)
}

/// The reusable solver-side state of a successful allocation — the one
/// record every rung of the [`staged`] ladder and the disk-cache readopt
/// path produce: the facts the model was built from, the model, and the
/// accepted rung's decoded assignment, statistics and quality. A compile
/// session caches this per program *structure* (immediates masked) so a
/// constant-only edit can skip the MILP entirely and just
/// [`refinish_with`] the cached assignment against the edited program.
pub struct SolvedAllocation {
    /// Liveness/def-use facts of the program the model was built from.
    pub facts: Facts,
    /// The generated bank model the assignment indexes into.
    pub bm: BankModel,
    /// The decoded assignment.
    pub asg: Assignment,
    /// Model and solver statistics of the accepted rung.
    pub stats: AllocStats,
    /// Stage/gap/spill quality record of the accepted rung.
    pub quality: AllocQuality,
    /// Always `None` and read by nothing: the raw solution vector this
    /// held is gone. Kept only because the frozen `benchmark/` package
    /// writes `values: None` in a struct literal; remove with the next
    /// benchmark change (see ROADMAP).
    #[doc(hidden)]
    pub values: Option<std::convert::Infallible>,
}

/// The deterministic preamble of every path that needs a bank model:
/// liveness facts, static frequencies, and the configuration with the
/// spill machinery dropped when no point can exhaust the general-purpose
/// banks — then spilling can never be required (or profitable, at 200x
/// move cost), so the `M` bank and its colorAvail/needsSpill rows go.
fn preamble(
    prog: &Program<Temp>,
    cfg: &AllocConfig,
    obs: &nova_obs::Obs,
) -> (Facts, freq::Frequencies, AllocConfig) {
    let facts = {
        let _span = obs.span("backend.facts");
        build_facts(prog)
    };
    let freqs = {
        let _span = obs.span("backend.freq");
        freq::estimate(prog)
    };
    let mut cfg = cfg.clone();
    let pressure = facts.exists.values().map(|s| s.len()).max().unwrap_or(0);
    obs.counter("backend.liveness.points", facts.exists.len() as u64);
    obs.counter("backend.liveness.max_pressure", pressure as u64);
    if cfg.allow_spill && cfg.spill_auto && pressure + 4 <= cfg.k_a + cfg.k_b {
        cfg.allow_spill = false;
        obs.counter("backend.spill.machinery_dropped", 1);
    }
    (facts, freqs, cfg)
}

/// [`allocate`] with structured telemetry, returning the
/// [`SolvedAllocation`] artifacts beside the allocation for session
/// caching.
///
/// Fact extraction and frequency estimation run under a `phase.ilp` span
/// (`backend.facts` and `backend.freq` sub-spans); CSR model generation
/// runs under a `phase.ilp.model` span; each solve attempt of the
/// fallback ladder runs under a `phase.ilp.stage` span (with
/// `phase.ilp.presolve` and `phase.ilp.solve` sub-spans from the solver,
/// the solver's own `ilp.*` events, plus `backend.staged.*`
/// counters/samples for attempts, backoff, chosen stage, and gap); the
/// extraction/coloring half of each accepted attempt runs under
/// `phase.codegen` (with `backend.extract` and `backend.color`
/// sub-spans); and the liveness, move, spill, and coalescing outcomes
/// are published as `backend.*` counters.
///
/// # Errors
///
/// See [`AllocError`].
pub fn allocate_solved_with(
    prog: &Program<Temp>,
    cfg: &AllocConfig,
    obs: &nova_obs::Obs,
) -> Result<(Allocation, SolvedAllocation), AllocError> {
    let ilp_span = obs.span("phase.ilp");
    let (facts, freqs, cfg) = preamble(prog, cfg, obs);
    ilp_span.end();
    staged::run(prog, facts, &freqs, &cfg, obs)
}

/// Rebuild the deterministic solver-side state for `prog` and finish a
/// previously decoded assignment against it — the disk-cache warm path.
///
/// A persisted allocation entry carries only the *decision* half of a
/// solve (the [`Assignment`], its objective and its quality record);
/// everything else — facts, frequencies, the bank model — is a pure
/// function of the program and configuration, so this
/// recomputes it with the same preamble [`allocate_solved_with`] runs
/// (including the automatic spill-machinery drop) and then goes straight
/// to extraction/coloring/validation. The result is bit-identical to the
/// cold allocation that produced the assignment, because none of the
/// recomputed phases depend on the MILP search that was skipped; solver
/// wall-clock statistics are zeroed (they describe a solve that never
/// ran).
///
/// # Errors
///
/// See [`AllocError`]. A stale or mismatched assignment (e.g. a cache
/// key collision) surfaces as `Extract`, `Color`, or `Invalid`; callers
/// should treat that as a cache miss and fall back to a full solve.
pub fn readopt_assignment_with(
    prog: &Program<Temp>,
    cfg: &AllocConfig,
    asg: Assignment,
    quality: AllocQuality,
    objective: f64,
    obs: &nova_obs::Obs,
) -> Result<(Allocation, SolvedAllocation), AllocError> {
    let ilp_span = obs.span("phase.ilp");
    let (facts, freqs, cfg) = preamble(prog, cfg, obs);
    let bm = build_model(prog, &facts, &freqs, &cfg);
    ilp_span.end();
    let stats = AllocStats {
        model: bm.model.stats(),
        solve: ilp::SolveStats::default(),
        fig6: bm.fig6,
        moves: asg.n_moves,
        spills: asg.n_spills,
        objective,
    };
    let alloc = finish(prog, &facts, &bm, &asg, stats.clone(), quality, obs)?;
    Ok((
        alloc,
        SolvedAllocation {
            facts,
            bm,
            asg,
            stats,
            quality,
            values: None,
        },
    ))
}

/// Re-run only the finishing half of allocation (extraction, coloring,
/// validation) against `prog`, reusing the cached model and assignment
/// from a previous solve of a *structurally identical* program (same
/// blocks, opcodes, and register structure; immediates may differ).
/// This skips fact extraction, frequency estimation, model generation,
/// and the MILP solve — the expensive ~95% of allocation — and is
/// bit-identical to a cold allocation because none of the skipped phases
/// read immediate values.
///
/// # Errors
///
/// See [`AllocError`]. A structural mismatch surfaces as `Extract`,
/// `Color`, or `Invalid`; callers should fall back to a full
/// [`allocate_solved_with`].
pub fn refinish_with(
    prog: &Program<Temp>,
    solved: &SolvedAllocation,
    obs: &nova_obs::Obs,
) -> Result<Allocation, AllocError> {
    finish(
        prog,
        &solved.facts,
        &solved.bm,
        &solved.asg,
        solved.stats.clone(),
        solved.quality,
        obs,
    )
}

/// Turn a solved assignment into validated machine code: extraction,
/// A/B coloring, (in debug builds) verification, register substitution,
/// and the machine-rule check. Shared by every rung of the fallback
/// ladder so degraded solutions face exactly the gates exact ones do.
pub(crate) fn finish(
    prog: &Program<Temp>,
    facts: &Facts,
    bm: &BankModel,
    assignment: &Assignment,
    stats: AllocStats,
    quality: AllocQuality,
    obs: &nova_obs::Obs,
) -> Result<Allocation, AllocError> {
    let codegen_span = obs.span("phase.codegen");
    let placed = {
        let _span = obs.span("backend.extract");
        extract(prog, facts, bm, assignment).map_err(AllocError::Extract)?
    };
    let (ab, color_stats) = {
        let _span = obs.span("backend.color");
        assign_ab(&placed).map_err(AllocError::Color)?
    };
    if cfg!(debug_assertions) {
        let violations = verify(&placed, &ab);
        if !violations.is_empty() {
            return Err(AllocError::Verify(violations));
        }
    }
    let final_prog = apply_registers(&placed, &ab)?;
    let violations = ixp_machine::validate(&final_prog);
    if !violations.is_empty() {
        return Err(AllocError::Invalid(violations));
    }
    codegen_span.end();
    if placed.spill_stride > 0 {
        let distinct: std::collections::HashSet<u32> =
            placed.spill_slots.values().copied().collect();
        obs.counter("backend.extract.spill_slots", distinct.len() as u64);
        obs.counter(
            "backend.extract.spill_stride",
            u64::from(placed.spill_stride),
        );
    }
    obs.counter("backend.moves", stats.moves as u64);
    obs.counter("backend.spills", stats.spills as u64);
    obs.counter("backend.color.coalesced", color_stats.coalesced as u64);
    Ok(Allocation {
        prog: final_prog,
        stats,
        color_stats,
        quality,
    })
}

/// Substitute physical registers for segment temporaries and drop
/// self-moves (successful coalesces).
fn apply_registers(
    placed: &Placed,
    ab: &std::collections::HashMap<Temp, PhysReg>,
) -> Result<Program<PhysReg>, AllocError> {
    let lookup = |t: Temp| -> Result<PhysReg, AllocError> {
        if let Some(r) = placed.fixed.get(&t) {
            return Ok(*r);
        }
        if let Some(r) = ab.get(&t) {
            return Ok(*r);
        }
        Err(AllocError::Extract(ExtractError(format!(
            "segment {t} was never assigned a register"
        ))))
    };
    let mut blocks = Vec::new();
    for b in &placed.prog.blocks {
        let mut instrs = Vec::new();
        for ins in &b.instrs {
            // Map and drop coalesced moves.
            let mut err = None;
            let mapped = ins.clone().map(&mut |t: Temp| match lookup(t) {
                Ok(r) => r,
                Err(e) => {
                    err = Some(e);
                    PhysReg::new(ixp_machine::Bank::A, 0)
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            if let Instr::Move { dst, src } = &mapped {
                if dst == src {
                    continue; // coalesced
                }
            }
            instrs.push(mapped);
        }
        let mut err = None;
        let term = b.term.clone().map(&mut |t: Temp| match lookup(t) {
            Ok(r) => r,
            Err(e) => {
                err = Some(e);
                PhysReg::new(ixp_machine::Bank::A, 0)
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        blocks.push(ixp_machine::Block { instrs, term });
    }
    Ok(Program {
        blocks,
        entry: placed.prog.entry,
    })
}
