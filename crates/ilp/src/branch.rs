//! Branch and bound for mixed 0-1 integer programs, with singleton-row
//! presolve, lazy-constraint activation, and a serial best-bound-plus-dive
//! tree search.
//!
//! The solver explores a tree of bound fixings, using the LP relaxation
//! (solved by [`crate::simplex::Simplex`]) for bounds and a rounding
//! heuristic for incumbents. Open nodes live in a best-bound-first
//! frontier; one warm-startable simplex workspace (the root's) serves the
//! whole search, which dives depth-first on the child nearer its parent's
//! LP value (early incumbents) and parks the sibling in the frontier.
//!
//! Two refinements matter for the register-allocation models this crate
//! serves:
//!
//! * **presolve** — rows with a single variable become bound changes and
//!   leave the LP entirely (the allocator's §9 "redundant cuts" are all of
//!   this form);
//! * **lazy rows** — constraints marked lazy start outside the working LP
//!   and are activated only when some LP (or incumbent candidate) violates
//!   them. Interference and spare-register rows are almost always slack,
//!   so the working LP stays small — fewer rows in every basis
//!   factorization and every pricing pass.
//!
//! **Determinism.** The search runs on the calling thread and visits nodes
//! in one fixed order, so two solves of the same problem are identical in
//! every counter. Incumbents are accepted only if strictly better, or
//! equal within `1e-9` and lexicographically smaller, so the reported
//! point does not depend on which of two tied points was found first.
//!
//! Termination uses the paper's gap: CPLEX was run "within 0.01 % of
//! optimal" (§11), so the default relative gap is `1e-4`.

use crate::presolve::presolve;
use crate::problem::{Problem, Sense, VarKind};
use crate::simplex::{KernelStats, LpError, LpSolution, Simplex};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Objective tolerance for incumbent ties (see module docs on determinism).
const INC_EPS: f64 = 1e-9;

/// Tunables for the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct BranchConfig {
    /// Stop when `(incumbent - bound) / max(1, |incumbent|)` falls below this.
    pub relative_gap: f64,
    /// Hard cap on explored nodes.
    pub max_nodes: usize,
    /// Wall-clock budget; `None` means unlimited. Enforced between node
    /// solves *and* inside the simplex pivot loops (via a shared deadline),
    /// so a single long LP cannot overshoot the budget by more than a few
    /// pivots.
    pub time_limit: Option<Duration>,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Absolute fathoming tolerance: a node whose LP bound comes within
    /// `fathom_abs + fathom_rel·|incumbent|` of the incumbent cannot
    /// contain a *meaningfully* better point and is pruned even when
    /// `relative_gap` is zero. This is what lets exact-gap solves finish:
    /// LP bounds carry numerical residue proportional to the reduced-cost
    /// tolerance times the basis size (observed ~8e-6 absolute on the
    /// 4.7k-variable AES model), so without it the search chases ties it
    /// can never separate. Must stay well below the granularity at which
    /// distinct integer points differ in objective (the allocator's
    /// epsilon tie-breaks are ~6e-8 apart, but genuinely different
    /// allocations differ by ≥ 1e-2). Set both to `0.0` to restore exact
    /// fathoming.
    pub fathom_abs: f64,
    /// Relative part of the fathoming tolerance (see `fathom_abs`).
    pub fathom_rel: f64,
    /// Run the full [`crate::presolve`] reduction (singletons, bound
    /// tightening, substitution, domination) before the tree search.
    /// Disabling it keeps every row in the model — useful for differential
    /// testing; the reported objective must not change.
    pub presolve: bool,
    /// Generate cover cuts during presolve (no effect when `presolve` is
    /// off). Cuts only strengthen the LP relaxation; the integer feasible
    /// set is untouched.
    pub cuts: bool,
}

impl Default for BranchConfig {
    fn default() -> Self {
        BranchConfig {
            relative_gap: 1e-4,
            max_nodes: 2_000_000,
            time_limit: None,
            int_tol: 1e-6,
            fathom_abs: 2e-5,
            fathom_rel: 1e-9,
            presolve: true,
            cuts: true,
        }
    }
}

impl BranchConfig {
    /// Builder-style presolve toggle.
    #[must_use]
    pub fn with_presolve(mut self, presolve: bool) -> Self {
        self.presolve = presolve;
        self
    }

    /// Builder-style cover-cut toggle.
    #[must_use]
    pub fn with_cuts(mut self, cuts: bool) -> Self {
        self.cuts = cuts;
        self
    }
}

/// Why a MILP solve stopped without a proven optimum.
#[derive(Debug, Clone, PartialEq)]
pub enum MilpError {
    /// No assignment satisfies the constraints and bounds.
    Infeasible,
    /// The relaxation is unbounded.
    Unbounded,
    /// Node or time budget exhausted before any integer point was found.
    /// Carries the partial statistics of the search up to the stop.
    BudgetExhausted(Box<SolveStats>),
    /// The LP engine failed numerically.
    Numerical(LpError),
}

impl std::fmt::Display for MilpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MilpError::Infeasible => f.write_str("integer program is infeasible"),
            MilpError::Unbounded => f.write_str("integer program is unbounded"),
            MilpError::BudgetExhausted(stats) => write!(
                f,
                "budget exhausted before an integer solution was found \
                 ({} nodes, {:.2}s)",
                stats.nodes,
                stats.total_time.as_secs_f64()
            ),
            MilpError::Numerical(e) => write!(f, "LP engine failure: {e}"),
        }
    }
}

impl std::error::Error for MilpError {}

/// Result of a successful MILP solve.
#[derive(Debug, Clone)]
pub struct MilpSolution {
    /// Objective of the best integer point found.
    pub objective: f64,
    /// Values of the structural variables (integers are exact within `int_tol`).
    pub values: Vec<f64>,
    /// Statistics of the search.
    pub stats: SolveStats,
}

/// Search statistics, reported by the Figure-7 table (`bench fig7`) and
/// `bench solver`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Objective of the root LP relaxation (after lazy activation).
    pub root_objective: f64,
    /// Time to solve the root relaxation (including lazy reactivation).
    pub root_time: Duration,
    /// Total wall-clock time including the root solve.
    pub total_time: Duration,
    /// Branch-and-bound nodes explored (root included).
    pub nodes: usize,
    /// Total simplex iterations (pivots), root included.
    pub simplex_iterations: usize,
    /// Lazy constraints activated into the working LP.
    pub activated_rows: usize,
    /// Rows removed by presolve (singletons, redundant, dominated).
    pub presolved_rows: usize,
    /// Cover-cut rows presolve appended to the working model.
    pub cuts_added: usize,
    /// Final proven relative gap (0 when optimal).
    pub gap: f64,
    /// True if the search proved optimality within the configured gap.
    pub proven_optimal: bool,
    /// Node LPs (root excluded) served by the dual-simplex warm path.
    pub warm_hits: usize,
    /// Node LPs (root excluded) that needed a cold two-phase solve.
    pub warm_misses: usize,
    /// LU factorizations (cold starts + periodic rebuilds).
    pub refactorizations: usize,
    /// Eta matrices appended to basis factorizations (one per pivot on a
    /// sparse workspace).
    pub eta_pivots: usize,
    /// Peak LU nonzero count over all factorizations (fill-in measure).
    pub lu_fill_nnz: usize,
}

impl SolveStats {
    /// Fraction of node LPs served from a warm basis (0 when no node LPs).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }

    /// Simplex pivot throughput over the whole solve (wall-clock).
    pub fn pivots_per_sec(&self) -> f64 {
        let secs = self.total_time.as_secs_f64();
        if secs > 0.0 {
            self.simplex_iterations as f64 / secs
        } else {
            0.0
        }
    }

    fn absorb_kernel(&mut self, ks: &KernelStats) {
        self.refactorizations += ks.refactorizations;
        self.eta_pivots += ks.eta_pivots;
        self.lu_fill_nnz = self.lu_fill_nnz.max(ks.lu_fill_nnz);
    }
}

/// An open node of the search tree: the branching decisions that produced
/// it plus the parent's LP bound (minimization form).
///
/// Bounds are stored as a *sparse delta* against the root box — one
/// `(var, lo, hi)` override per branching decision on the path from the
/// root — and materialized into a reused dense buffer just before
/// the node's LP solve. The dense representation used to dominate the
/// solver's allocation profile: two `n`-sized vectors per child on a
/// multi-thousand-variable model.
struct OpenNode {
    /// Bound overrides in root→leaf order (later entries win).
    fixes: Vec<(u32, f64, f64)>,
    bound: f64,
    depth: usize,
    /// Creation order; breaks frontier ties so the dive child of a pair is
    /// preferred when bounds and depths are equal.
    seq: u64,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenNode {
    /// `BinaryHeap` is a max-heap, so "greatest" pops first: smallest
    /// bound, then greatest depth (diving), then earliest creation.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .bound
            .total_cmp(&self.bound)
            .then_with(|| self.depth.cmp(&other.depth))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The tree search of one solve: the open-node frontier and the
/// incumbent. `problem` is the *working* problem: the presolve-reduced
/// model when presolve ran, the caller's model otherwise (same variable
/// columns either way).
struct Search<'a> {
    problem: &'a Problem,
    root_lo: &'a [f64],
    root_hi: &'a [f64],
    config: &'a BranchConfig,
    int_vars: &'a [usize],
    obj_coeff: &'a [f64],
    minimize: bool,
    deadline: Option<Instant>,
    frontier: BinaryHeap<OpenNode>,
    /// Best integer point so far, in minimization form.
    incumbent: Option<(f64, Vec<f64>)>,
    /// Lower envelope of the incumbent objective, used for pruning. It can
    /// sit up to [`INC_EPS`] below `incumbent`'s objective after a
    /// lexicographic tie replacement (monotonically non-increasing).
    incumbent_min: f64,
    seq: u64,
}

impl Search<'_> {
    /// Offer an integer point (minimization form). Accepts strict
    /// improvements, and — for objective ties within [`INC_EPS`] —
    /// lexicographically smaller value vectors, which makes the final
    /// incumbent independent of discovery order.
    fn offer_incumbent(&mut self, obj: f64, values: Vec<f64>) {
        let accept = match &self.incumbent {
            None => true,
            Some((cur, cur_values)) => {
                obj < cur - INC_EPS
                    || ((obj - cur).abs() <= INC_EPS && lex_less(&values, cur_values))
            }
        };
        if accept {
            self.incumbent_min = obj.min(self.incumbent_min);
            self.incumbent = Some((obj, values));
        }
    }

    /// True when a node with LP bound `bound` cannot hold a meaningfully
    /// better point than the incumbent.
    fn fathomed(&self, bound: f64) -> bool {
        let inc = self.incumbent_min;
        inc.is_finite() && bound >= inc - prune_margin(inc, self.config)
    }

    /// Build both children of branching on `x_j`, returning `(dive, other)`
    /// where `dive` is the child nearer the LP value (explored next, for
    /// early incumbents). Children extend the parent's sparse fix list by
    /// one override; `cur_lo`/`cur_hi` are the parent's materialized bounds
    /// of `x_j`, preserved on the side the branch does not clamp.
    #[allow(clippy::too_many_arguments)]
    fn make_children(
        &mut self,
        parent_fixes: &[(u32, f64, f64)],
        j: usize,
        xj: f64,
        cur_lo: f64,
        cur_hi: f64,
        bound: f64,
        depth: usize,
    ) -> (OpenNode, OpenNode) {
        let floor = xj.floor();
        let ceil = xj.ceil();
        let child = |lo_j: f64, hi_j: f64| {
            let mut fixes = Vec::with_capacity(parent_fixes.len() + 1);
            fixes.extend_from_slice(parent_fixes);
            fixes.push((j as u32, lo_j, hi_j));
            OpenNode {
                fixes,
                bound,
                depth,
                seq: 0,
            }
        };
        let down = child(cur_lo, floor);
        let up = child(ceil, cur_hi);
        let (mut dive, mut other) = if xj - floor <= ceil - xj {
            (down, up)
        } else {
            (up, down)
        };
        dive.seq = self.seq;
        other.seq = self.seq + 1;
        self.seq += 2;
        (dive, other)
    }

    /// Explore the frontier to exhaustion or budget: take the dive child
    /// of the last branching if there is one, else the best-bound open
    /// node; solve its relaxation on `simplex` (warm from whatever node
    /// came before); branch. Node, pivot, lazy-row and warm-path counts
    /// accumulate into `stats`. Returns whether a node or time budget
    /// stopped the search; the node it stopped on goes back to the
    /// frontier so the final bound/gap report still accounts for it.
    fn run(
        &mut self,
        simplex: &mut Simplex,
        lazy: &mut Vec<usize>,
        stats: &mut SolveStats,
    ) -> Result<bool, MilpError> {
        let cfg = self.config;
        let mut dive: Option<OpenNode> = None;
        // Dense bound buffers, reused across every node; each node's
        // sparse fixes are materialized on top of the root box.
        let mut lo_buf: Vec<f64> = Vec::with_capacity(self.root_lo.len());
        let mut hi_buf: Vec<f64> = Vec::with_capacity(self.root_hi.len());
        while let Some(node) = dive.take().or_else(|| self.frontier.pop()) {
            // Prune against the (possibly newer) incumbent.
            if self.fathomed(node.bound) {
                continue;
            }
            if stats.nodes >= cfg.max_nodes || self.deadline.is_some_and(|d| Instant::now() >= d) {
                self.frontier.push(node);
                return Ok(true);
            }
            lo_buf.clear();
            lo_buf.extend_from_slice(self.root_lo);
            hi_buf.clear();
            hi_buf.extend_from_slice(self.root_hi);
            for &(j, l, h) in &node.fixes {
                lo_buf[j as usize] = l;
                hi_buf[j as usize] = h;
            }
            let result = solve_lazy(
                self.problem,
                simplex,
                lazy,
                &mut stats.simplex_iterations,
                &mut stats.activated_rows,
                &lo_buf,
                &hi_buf,
            );
            let (sol, was_warm) = match result {
                Ok(pair) => pair,
                Err(LpError::Infeasible) => {
                    stats.nodes += 1;
                    continue;
                }
                Err(LpError::TimeLimit) => {
                    self.frontier.push(node);
                    return Ok(true);
                }
                Err(LpError::Unbounded) => return Err(MilpError::Unbounded),
                Err(e) => return Err(MilpError::Numerical(e)),
            };
            stats.nodes += 1;
            if was_warm {
                stats.warm_hits += 1;
            } else {
                stats.warm_misses += 1;
            }
            let bound = to_min(self.minimize, sol.objective);
            if self.fathomed(bound) {
                continue;
            }
            match frac_var(self.int_vars, &sol.values, cfg.int_tol, self.obj_coeff) {
                None => self.offer_incumbent(bound, sol.values),
                Some(j) => {
                    if let Some(x) = round_heuristic(self.problem, &sol.values, cfg.int_tol) {
                        let obj = to_min(self.minimize, self.problem.objective_value(&x));
                        self.offer_incumbent(obj, x);
                    }
                    let (first, other) = self.make_children(
                        &node.fixes,
                        j,
                        sol.values[j],
                        lo_buf[j],
                        hi_buf[j],
                        bound,
                        node.depth + 1,
                    );
                    self.frontier.push(other);
                    dive = Some(first);
                }
            }
        }
        Ok(false)
    }
}

fn lex_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b.iter()) {
        if (x - y).abs() > INC_EPS {
            return x < y;
        }
    }
    false
}

fn to_min(minimize: bool, v: f64) -> f64 {
    if minimize {
        v
    } else {
        -v
    }
}

/// The working model of one solve: the (optionally presolve-reduced)
/// problem, root bounds, and the core/lazy row partition.
struct Prepared {
    /// The reduced problem when presolve ran; `None` means "use the
    /// caller's problem unchanged".
    reduced: Option<Box<Problem>>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    core: Vec<usize>,
    lazy: Vec<usize>,
}

impl Prepared {
    fn problem<'a>(&'a self, original: &'a Problem) -> &'a Problem {
        self.reduced.as_deref().unwrap_or(original)
    }
}

/// Run (or skip, per `config.presolve`) the [`crate::presolve`] reduction
/// and set up root bounds with inward integer rounding. Row-drop and cut
/// counters land in `stats`.
fn prepare(
    problem: &Problem,
    config: &BranchConfig,
    stats: &mut SolveStats,
) -> Result<Prepared, MilpError> {
    if config.presolve {
        let red = presolve(problem, config.cuts).map_err(|_| MilpError::Infeasible)?;
        stats.presolved_rows = red.stats.rows_dropped;
        stats.cuts_added = red.stats.cuts_added;
        let lo = red.problem.vars.iter().map(|d| d.lower).collect();
        let hi = red.problem.vars.iter().map(|d| d.upper).collect();
        return Ok(Prepared {
            lo,
            hi,
            core: red.core,
            lazy: red.lazy,
            reduced: Some(Box::new(red.problem)),
        });
    }
    let mut lo: Vec<f64> = problem.vars.iter().map(|d| d.lower).collect();
    let mut hi: Vec<f64> = problem.vars.iter().map(|d| d.upper).collect();
    for (j, d) in problem.vars.iter().enumerate() {
        if d.kind == VarKind::Integer {
            lo[j] = lo[j].ceil();
            hi[j] = hi[j].floor();
            if lo[j] > hi[j] {
                return Err(MilpError::Infeasible);
            }
        }
    }
    let mut core = Vec::new();
    let mut lazy = Vec::new();
    for i in 0..problem.num_constraints() {
        if problem.row_view(i).lazy {
            lazy.push(i);
        } else {
            core.push(i);
        }
    }
    Ok(Prepared {
        reduced: None,
        lo,
        hi,
        core,
        lazy,
    })
}

/// Solve an LP (warm when possible), activating violated lazy rows via
/// incremental row addition + dual-simplex repair. Returns the clean
/// solution and whether the *first* resolve of the node stayed on the
/// warm dual-simplex path.
fn solve_lazy(
    problem: &Problem,
    simplex: &mut Simplex,
    lazy: &mut Vec<usize>,
    pivots: &mut usize,
    activated: &mut usize,
    lo: &[f64],
    hi: &[f64],
) -> Result<(LpSolution, bool), LpError> {
    let viol_tol = 1e-6;
    let mut sol = simplex.resolve_with_bounds(lo, hi)?;
    let was_warm = simplex.last_solve_was_warm();
    loop {
        *pivots += sol.iterations;
        let mut newly: Vec<usize> = Vec::new();
        lazy.retain(|&i| {
            if problem.violation(i, &sol.values) > viol_tol {
                newly.push(i);
                false
            } else {
                true
            }
        });
        if newly.is_empty() {
            return Ok((sol, was_warm));
        }
        *activated += newly.len();
        simplex.add_rows(problem, &newly);
        sol = simplex.resolve_with_bounds(lo, hi)?;
    }
}

/// Branch on the fractional variable with the largest |objective
/// coefficient| (bank decisions before colors), tie-broken by
/// most-fractional.
fn frac_var(int_vars: &[usize], x: &[f64], int_tol: f64, obj_coeff: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for &j in int_vars {
        let f = (x[j] - x[j].round()).abs();
        if f > int_tol {
            let dist = 0.5 - (x[j] - x[j].floor() - 0.5).abs();
            let score = obj_coeff[j] * 10.0 + dist;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((j, score));
            }
        }
    }
    best.map(|(j, _)| j)
}

/// [`solve_milp`] with structured telemetry.
///
/// The presolve reduction runs under a `phase.ilp.presolve` span and the
/// root relaxation plus tree search under `phase.ilp.solve`, so
/// per-sub-phase wall time and heap attribution land where the work
/// happens; after the solve (successful or budget-exhausted) the search's
/// [`SolveStats`] are published to `obs` as `ilp.*` counters plus
/// `ilp.root` / `ilp.solve` spans. All emission happens outside the pivot
/// and node hot loops, so a no-op observer costs one branch per solve.
///
/// # Errors
///
/// See [`MilpError`].
pub fn solve_milp_with(
    problem: &Problem,
    config: &BranchConfig,
    obs: &nova_obs::Obs,
) -> Result<MilpSolution, MilpError> {
    let res = solve_milp_inner(problem, config, obs);
    emit_stats(obs, &res);
    res
}

/// Publish the statistics of one solve (successful or budget-exhausted)
/// as observability events.
fn emit_stats(obs: &nova_obs::Obs, res: &Result<MilpSolution, MilpError>) {
    if !obs.enabled() {
        return;
    }
    let s = match res {
        Ok(sol) => &sol.stats,
        Err(MilpError::BudgetExhausted(stats)) => stats,
        Err(_) => return,
    };
    obs.span_dur("ilp.root", s.root_time);
    obs.span_dur("ilp.solve", s.total_time);
    obs.counter("ilp.nodes", s.nodes as u64);
    obs.counter("ilp.pivots", s.simplex_iterations as u64);
    obs.counter("ilp.refactorizations", s.refactorizations as u64);
    obs.counter("ilp.eta_pivots", s.eta_pivots as u64);
    obs.counter("ilp.activated_rows", s.activated_rows as u64);
    obs.counter("ilp.presolved_rows", s.presolved_rows as u64);
    obs.counter("ilp.cuts_added", s.cuts_added as u64);
    obs.counter("ilp.warm_hits", s.warm_hits as u64);
    obs.counter("ilp.warm_misses", s.warm_misses as u64);
    obs.sample("ilp.pivots_per_sec", s.pivots_per_sec());
}

/// LP-relaxation rounding: solve only the root relaxation (with presolve
/// and lazy-row activation, under the configured deadline) and round the
/// fractional integers to the nearest feasible integer point. No tree
/// search is performed, so this is the cheapest way to obtain *some*
/// integer solution together with a proven bound — the staged allocator's
/// last ILP rung before giving up on the model entirely.
///
/// On success the reported `gap` is measured against the root LP bound;
/// `proven_optimal` is set only when that gap is within
/// `config.relative_gap` (e.g. an integral root).
///
/// # Errors
///
/// [`MilpError::BudgetExhausted`] when the root LP hits the deadline or
/// the rounded point is infeasible; other [`MilpError`] variants as for
/// [`solve_milp`].
pub fn solve_rounded(problem: &Problem, config: &BranchConfig) -> Result<MilpSolution, MilpError> {
    solve_rounded_inner(problem, config, &nova_obs::Obs::noop())
}

fn solve_rounded_inner(
    problem: &Problem,
    config: &BranchConfig,
    obs: &nova_obs::Obs,
) -> Result<MilpSolution, MilpError> {
    let start = Instant::now();
    let deadline = config.time_limit.map(|l| start + l);
    let minimize = problem.sense == Sense::Minimize;
    let mut stats = SolveStats::default();
    let pre = {
        let _span = obs.span("phase.ilp.presolve");
        prepare(problem, config, &mut stats)
    }?;
    // Emits on drop at whichever return the root solve + rounding reaches.
    let _solve_span = obs.span("phase.ilp.solve");
    let work = pre.problem(problem);
    let int_vars: Vec<usize> = work
        .vars
        .iter()
        .enumerate()
        .filter(|(_, d)| d.kind == VarKind::Integer)
        .map(|(i, _)| i)
        .collect();
    let mut simplex = Simplex::with_rows(work, Some(&pre.core));
    simplex.set_deadline(deadline);
    let mut lazy = pre.lazy.clone();
    let root_start = Instant::now();
    let mut pivots = 0usize;
    let mut activated = 0usize;
    let root = match solve_lazy(
        work,
        &mut simplex,
        &mut lazy,
        &mut pivots,
        &mut activated,
        &pre.lo,
        &pre.hi,
    ) {
        Ok((s, _)) => s,
        Err(LpError::Infeasible) => return Err(MilpError::Infeasible),
        Err(LpError::Unbounded) => return Err(MilpError::Unbounded),
        Err(LpError::TimeLimit) => {
            stats.root_time = root_start.elapsed();
            stats.total_time = start.elapsed();
            stats.absorb_kernel(&simplex.kernel_stats());
            return Err(MilpError::BudgetExhausted(Box::new(stats)));
        }
        Err(e) => return Err(MilpError::Numerical(e)),
    };
    stats.root_time = root_start.elapsed();
    stats.root_objective = root.objective;
    stats.simplex_iterations = pivots;
    stats.activated_rows = activated;
    stats.nodes = 1;
    stats.absorb_kernel(&simplex.kernel_stats());
    let integral = int_vars
        .iter()
        .all(|&j| (root.values[j] - root.values[j].round()).abs() <= config.int_tol);
    if integral {
        stats.proven_optimal = true;
        stats.total_time = start.elapsed();
        return Ok(MilpSolution {
            objective: problem.objective_value(&root.values),
            values: root.values,
            stats,
        });
    }
    match round_heuristic(work, &root.values, config.int_tol) {
        Some(x) => {
            let objective = problem.objective_value(&x);
            let obj_min = to_min(minimize, objective);
            let bound = to_min(minimize, root.objective);
            stats.gap = ((obj_min - bound) / obj_min.abs().max(1.0)).max(0.0);
            stats.proven_optimal = stats.gap <= config.relative_gap;
            stats.total_time = start.elapsed();
            Ok(MilpSolution {
                objective,
                values: x,
                stats,
            })
        }
        None => {
            stats.total_time = start.elapsed();
            Err(MilpError::BudgetExhausted(Box::new(stats)))
        }
    }
}

/// [`solve_rounded`] with the same structured telemetry as
/// [`solve_milp_with`].
///
/// # Errors
///
/// See [`solve_rounded`].
pub fn solve_rounded_with(
    problem: &Problem,
    config: &BranchConfig,
    obs: &nova_obs::Obs,
) -> Result<MilpSolution, MilpError> {
    let res = solve_rounded_inner(problem, config, obs);
    emit_stats(obs, &res);
    res
}

/// Solve a mixed 0-1/integer problem by branch and bound.
///
/// # Errors
///
/// See [`MilpError`].
pub fn solve_milp(problem: &Problem, config: &BranchConfig) -> Result<MilpSolution, MilpError> {
    solve_milp_inner(problem, config, &nova_obs::Obs::noop())
}

fn solve_milp_inner(
    problem: &Problem,
    config: &BranchConfig,
    obs: &nova_obs::Obs,
) -> Result<MilpSolution, MilpError> {
    let start = Instant::now();
    let deadline = config.time_limit.map(|l| start + l);
    let minimize = problem.sense == Sense::Minimize;

    // ---- presolve: forced reductions + optional cuts ----
    let mut stats = SolveStats::default();
    let pre = {
        let _span = obs.span("phase.ilp.presolve");
        prepare(problem, config, &mut stats)
    }?;
    // Emits on drop at whichever return the root solve + search reaches.
    let _solve_span = obs.span("phase.ilp.solve");
    let work = pre.problem(problem);
    let root_lo = &pre.lo;
    let root_hi = &pre.hi;
    let core = &pre.core;
    let mut lazy = pre.lazy.clone();

    let int_vars: Vec<usize> = work
        .vars
        .iter()
        .enumerate()
        .filter(|(_, d)| d.kind == VarKind::Integer)
        .map(|(i, _)| i)
        .collect();
    let obj_coeff: Vec<f64> = work.objective.iter().map(|c| c.abs()).collect();

    // ---- root relaxation on the core rows, activating lazy rows ----
    let mut simplex = Simplex::with_rows(work, Some(core));
    simplex.set_deadline(deadline);

    let root_start = Instant::now();
    let root = match solve_lazy(
        work,
        &mut simplex,
        &mut lazy,
        &mut stats.simplex_iterations,
        &mut stats.activated_rows,
        root_lo,
        root_hi,
    ) {
        Ok((s, _)) => s,
        Err(LpError::Infeasible) => return Err(MilpError::Infeasible),
        Err(LpError::Unbounded) => return Err(MilpError::Unbounded),
        Err(LpError::TimeLimit) => {
            stats.total_time = start.elapsed();
            stats.root_time = root_start.elapsed();
            stats.absorb_kernel(&simplex.kernel_stats());
            return Err(MilpError::BudgetExhausted(Box::new(stats)));
        }
        Err(e) => return Err(MilpError::Numerical(e)),
    };
    stats.root_time = root_start.elapsed();
    stats.root_objective = root.objective;
    stats.nodes = 1;

    let root_incumbent = round_heuristic(work, &root.values, config.int_tol)
        .map(|x| (to_min(minimize, problem.objective_value(&x)), x));

    // Root already integral: done without a tree.
    let Some(j) = frac_var(&int_vars, &root.values, config.int_tol, &obj_coeff) else {
        stats.total_time = start.elapsed();
        stats.proven_optimal = true;
        stats.absorb_kernel(&simplex.kernel_stats());
        return Ok(MilpSolution {
            objective: problem.objective_value(&root.values),
            values: root.values,
            stats,
        });
    };

    // ---- tree search, on the root's workspace (its basis warm-starts
    // the first dive) ----
    let mut search = Search {
        problem: work,
        root_lo,
        root_hi,
        config,
        int_vars: &int_vars,
        obj_coeff: &obj_coeff,
        minimize,
        deadline,
        frontier: BinaryHeap::new(),
        incumbent: None,
        incumbent_min: f64::INFINITY,
        seq: 0,
    };
    if let Some((obj, x)) = root_incumbent {
        search.offer_incumbent(obj, x);
    }
    let (dive, other) = search.make_children(
        &[],
        j,
        root.values[j],
        root_lo[j],
        root_hi[j],
        to_min(minimize, root.objective),
        1,
    );
    search.frontier.push(dive);
    search.frontier.push(other);
    let outcome = search.run(&mut simplex, &mut lazy, &mut stats);

    // ---- assemble the result ----
    stats.absorb_kernel(&simplex.kernel_stats());
    stats.total_time = start.elapsed();
    let budget_hit = outcome?;
    let Search {
        frontier,
        incumbent,
        ..
    } = search;
    let best_bound = frontier
        .iter()
        .map(|n| n.bound)
        .fold(f64::INFINITY, f64::min);
    match incumbent {
        Some((obj, values)) => {
            let exhausted = frontier.is_empty() && !budget_hit;
            // Remaining open nodes whose bounds sit inside the fathoming
            // margin cannot hold a meaningfully better solution, so the
            // incumbent is still proven optimal to within the configured
            // tolerances even when the deadline interrupts the search.
            let within_margin = obj - best_bound <= prune_margin(obj, config);
            stats.proven_optimal = exhausted || within_margin;
            stats.gap = if exhausted {
                0.0
            } else {
                ((obj - best_bound) / obj.abs().max(1.0)).max(0.0)
            };
            // Recompute from the values so the reported objective is a
            // function of the solution alone, not of whether it arrived
            // via an integral LP or the rounding heuristic.
            Ok(MilpSolution {
                objective: problem.objective_value(&values),
                values,
                stats,
            })
        }
        None if budget_hit => Err(MilpError::BudgetExhausted(Box::new(stats))),
        None => Err(MilpError::Infeasible),
    }
}

fn gap_abs(incumbent: f64, rel: f64) -> f64 {
    rel * incumbent.abs().max(1.0)
}

/// How far below the incumbent a node bound must reach to stay open: the
/// configured relative gap, floored by the fathoming tolerance that
/// absorbs LP numerical residue (see [`BranchConfig::fathom_abs`]).
fn prune_margin(incumbent: f64, cfg: &BranchConfig) -> f64 {
    gap_abs(incumbent, cfg.relative_gap).max(cfg.fathom_abs + cfg.fathom_rel * incumbent.abs())
}

/// Round fractional integers to their nearest value and accept the point if
/// it satisfies every constraint (lazy ones included).
fn round_heuristic(problem: &Problem, x: &[f64], tol: f64) -> Option<Vec<f64>> {
    let mut r: Vec<f64> = x.to_vec();
    let mut any_frac = false;
    for (i, d) in problem.vars.iter().enumerate() {
        if d.kind == VarKind::Integer {
            let rounded = r[i].round();
            if (r[i] - rounded).abs() > tol {
                any_frac = true;
            }
            r[i] = rounded.clamp(d.lower, d.upper);
        }
    }
    if !any_frac {
        return None;
    }
    if problem.is_feasible(&r, 1e-6) {
        Some(r)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testing::{objective, row};
    use crate::problem::{Cmp, Var};

    fn cfg() -> BranchConfig {
        BranchConfig::default()
    }

    #[test]
    fn knapsack() {
        let mut p = Problem::maximize();
        let x1 = p.add_binary("x1");
        let x2 = p.add_binary("x2");
        let x3 = p.add_binary("x3");
        row(
            &mut p,
            &[(x1, 3.0), (x2, 4.0), (x3, 2.0)],
            Cmp::Le,
            6.0,
            false,
        );
        objective(&mut p, &[(x1, 10.0), (x2, 13.0), (x3, 7.0)]);
        let s = solve_milp(&p, &cfg()).unwrap();
        assert!((s.objective - 20.0).abs() < 1e-5, "got {}", s.objective);
        assert!(s.stats.proven_optimal);
    }

    #[test]
    fn infeasible_integer() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        row(&mut p, &[(x, 2.0)], Cmp::Eq, 1.0, false);
        objective(&mut p, &[(x, 1.0)]);
        let err = solve_milp(&p, &cfg()).unwrap_err();
        assert_eq!(err, MilpError::Infeasible);
    }

    #[test]
    fn lp_infeasible_detected() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        row(&mut p, &[(x, 1.0)], Cmp::Ge, 2.0, false);
        assert_eq!(solve_milp(&p, &cfg()).unwrap_err(), MilpError::Infeasible);
    }

    #[test]
    fn singleton_presolve_fixes_vars() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        row(&mut p, &[(x, 1.0)], Cmp::Eq, 1.0, false);
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Le, 1.0, false);
        objective(&mut p, &[(x, -1.0), (y, -1.0)]);
        let s = solve_milp(&p, &cfg()).unwrap();
        // The full presolve fixes x=1 and then y=0 by substitution, so both
        // rows leave the model.
        assert!(s.stats.presolved_rows >= 1);
        assert!((s.values[0] - 1.0).abs() < 1e-6);
        assert!((s.values[1] - 0.0).abs() < 1e-6);
    }

    #[test]
    fn lazy_rows_activate_only_when_needed() {
        // min -x - y with a lazy row x + y <= 1: the LP without it picks
        // (1,1), which violates the row, forcing activation.
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        row(&mut p, &[(x, 1.0), (y, 1.0)], Cmp::Le, 1.0, true);
        objective(&mut p, &[(x, -1.0), (y, -1.0)]);
        let s = solve_milp(&p, &cfg()).unwrap();
        assert!((s.objective + 1.0).abs() < 1e-6, "got {}", s.objective);
        assert_eq!(s.stats.activated_rows, 1);

        // A lazy row that is never binding stays out.
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        row(&mut p, &[(x, 1.0)], Cmp::Le, 5.0, true);
        objective(&mut p, &[(x, 1.0)]);
        let s = solve_milp(&p, &cfg()).unwrap();
        assert_eq!(s.stats.activated_rows, 0);
    }

    /// Four items into two bins of capacity two, one cost per (item, bin).
    fn coupled_assignment() -> Problem {
        let costs = [[1.0, 9.0], [8.0, 2.0], [3.0, 3.0], [7.0, 1.0]];
        let mut p = Problem::minimize();
        let v: Vec<[Var; 2]> = (0..4)
            .map(|i| {
                [
                    p.add_binary(format!("x{i}0")),
                    p.add_binary(format!("x{i}1")),
                ]
            })
            .collect();
        for item in &v {
            row(
                &mut p,
                &[(item[0], 1.0), (item[1], 1.0)],
                Cmp::Eq,
                1.0,
                false,
            );
        }
        for b in 0..2 {
            let bin: Vec<(Var, f64)> = v.iter().map(|item| (item[b], 1.0)).collect();
            row(&mut p, &bin, Cmp::Le, 2.0, false);
        }
        for (item, cost) in v.iter().zip(costs) {
            objective(&mut p, &[(item[0], cost[0]), (item[1], cost[1])]);
        }
        p
    }

    #[test]
    fn assignment_with_coupling() {
        let s = solve_milp(&coupled_assignment(), &cfg()).unwrap();
        assert!((s.objective - 7.0).abs() < 1e-5, "got {}", s.objective);
    }

    fn random_binary_problem(rng: &mut rand::rngs::StdRng, n: usize) -> Problem {
        use rand::Rng;
        let mut p = Problem::minimize();
        let vars: Vec<_> = (0..n).map(|i| p.add_binary(format!("b{i}"))).collect();
        for _ in 0..5 {
            let terms: Vec<(Var, f64)> = vars
                .iter()
                .map(|&v| (v, rng.gen_range(-2..=3) as f64))
                .collect();
            let sense = if rng.gen_bool(0.3) { Cmp::Eq } else { Cmp::Le };
            let rhs = rng.gen_range(0..=5) as f64;
            // Randomly mark some rows lazy: results must not change.
            row(&mut p, &terms, sense, rhs, rng.gen_bool(0.5));
        }
        for &v in &vars {
            p.objective_term(v, rng.gen_range(-5..=5) as f64);
        }
        p
    }

    #[test]
    fn exhaustive_crosscheck_random_binaries() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..30 {
            let n = 8;
            let p = random_binary_problem(&mut rng, n);
            let mut best: Option<f64> = None;
            for mask in 0..(1u32 << n) {
                let x: Vec<f64> = (0..n)
                    .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
                    .collect();
                if p.is_feasible(&x, 1e-9) {
                    let v = p.objective_value(&x);
                    best = Some(best.map_or(v, |b: f64| b.min(v)));
                }
            }
            let milp = solve_milp(&p, &cfg());
            match best {
                Some(b) => {
                    let s = milp.unwrap_or_else(|e| panic!("trial {trial}: {e}, expected {b}"));
                    assert!(
                        (s.objective - b).abs() < 1e-4,
                        "trial {trial}: milp {} vs brute {b}",
                        s.objective
                    );
                }
                None => {
                    assert!(milp.is_err(), "trial {trial}: expected infeasible");
                }
            }
        }
    }

    #[test]
    fn presolve_differential_same_objective() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..15 {
            let p = random_binary_problem(&mut rng, 9);
            let base = BranchConfig {
                relative_gap: 0.0,
                ..BranchConfig::default()
            };
            let on = solve_milp(&p, &base.clone());
            let off = solve_milp(&p, &base.clone().with_presolve(false));
            let no_cuts = solve_milp(&p, &base.clone().with_cuts(false));
            for (label, got) in [("presolve off", &off), ("cuts off", &no_cuts)] {
                match (&on, got) {
                    (Ok(a), Ok(b)) => {
                        assert!(
                            (a.objective - b.objective).abs() < 1e-6,
                            "trial {trial}: {label} gave {} vs {}",
                            b.objective,
                            a.objective
                        );
                        assert!(p.is_feasible(&a.values, 1e-6), "trial {trial}");
                        assert!(p.is_feasible(&b.values, 1e-6), "trial {trial}");
                    }
                    (Err(MilpError::Infeasible), Err(MilpError::Infeasible)) => {}
                    (a, b) => panic!("trial {trial}: {label}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn budget_exhausted_carries_partial_stats() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        // Find a feasible instance and strangle the node budget so the
        // search stops before it can prove anything.
        for _ in 0..20 {
            let p = random_binary_problem(&mut rng, 10);
            let mut c = cfg();
            c.max_nodes = 1; // root only
            match solve_milp(&p, &c) {
                Err(MilpError::BudgetExhausted(stats)) => {
                    assert!(stats.nodes >= 1);
                    assert!(stats.total_time >= stats.root_time);
                    return;
                }
                // Root integral, heuristic found a point, or infeasible:
                // try another instance.
                _ => continue,
            }
        }
        panic!("no instance exercised the budget path");
    }

    #[test]
    fn time_limit_stops_inside_simplex() {
        // A zero time budget must surface as BudgetExhausted via the
        // in-pivot-loop deadline check, not hang in the root LP.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let p = random_binary_problem(&mut rng, 12);
        let mut c = cfg();
        c.time_limit = Some(Duration::ZERO);
        match solve_milp(&p, &c) {
            Err(MilpError::BudgetExhausted(stats)) => {
                assert_eq!(stats.nodes, 0, "root LP never completed");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn warm_start_telemetry_populated() {
        let s = solve_milp(&coupled_assignment(), &cfg()).unwrap();
        if s.stats.nodes > 1 {
            // The search runs on the root's workspace, so every node LP
            // after the root should hit the warm path.
            assert!(
                s.stats.warm_hits + s.stats.warm_misses > 0,
                "node LPs must be classified"
            );
            assert!(s.stats.warm_hit_rate() > 0.0, "expected warm hits");
        }
    }

    #[test]
    fn rounded_solve_is_feasible_with_bound() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(19);
        let mut exercised = 0;
        for _ in 0..30 {
            let p = random_binary_problem(&mut rng, 10);
            match solve_rounded(&p, &cfg()) {
                Ok(s) => {
                    assert!(p.is_feasible(&s.values, 1e-6), "rounded point feasible");
                    assert!(s.stats.gap >= 0.0);
                    assert_eq!(s.stats.nodes, 1, "no tree search");
                    // The bound must be valid: for minimization, the root
                    // LP objective is a lower bound on the exact optimum.
                    if let Ok(exact) = solve_milp(&p, &cfg()) {
                        assert!(
                            s.stats.root_objective <= exact.objective + 1e-6,
                            "root bound {} vs exact {}",
                            s.stats.root_objective,
                            exact.objective
                        );
                        assert!(s.objective >= exact.objective - 1e-6);
                    }
                    exercised += 1;
                }
                Err(MilpError::BudgetExhausted(stats)) => {
                    // Rounding failed: still carries the root stats.
                    assert_eq!(stats.nodes, 1);
                }
                Err(MilpError::Infeasible) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(exercised > 0, "no instance produced a rounded solution");
    }

    #[test]
    fn rounded_solve_honours_deadline() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let p = random_binary_problem(&mut rng, 12);
        let mut c = cfg();
        c.time_limit = Some(Duration::ZERO);
        match solve_rounded(&p, &c) {
            Err(MilpError::BudgetExhausted(stats)) => {
                assert_eq!(stats.nodes, 0, "root LP never completed");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn respects_time_limit_field() {
        let mut c = cfg();
        c.time_limit = Some(Duration::from_secs(30));
        let mut p = Problem::maximize();
        let x = p.add_binary("x");
        objective(&mut p, &[(x, 1.0)]);
        let s = solve_milp(&p, &c).unwrap();
        assert_eq!(s.objective, 1.0);
    }
}
