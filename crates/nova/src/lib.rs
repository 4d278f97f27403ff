//! The Nova compiler: one-call pipeline from source text to allocated,
//! validated IXP1200 machine code.
//!
//! This crate glues the phases together in the paper's order (§4):
//! parse → type check → CPS conversion → CPS optimization
//! (de-proceduralization included) → static single use → instruction
//! selection → ILP bank/register allocation → A/B coloring → validation.
//!
//! Configuration goes through one builder that carries exactly what the
//! compile pipeline reads (a simulation takes its own [`ChipConfig`]);
//! no product crate reads the environment.
//!
//! The primary entry point is a [`Compiler`] session, which caches
//! finished images and solved allocations by content hash, so a repeat
//! compile runs nothing and a constant edit skips the MILP solve:
//!
//! ```
//! let cfg = nova::CompileConfig::builder().solver_gap(0.0).build();
//! let compiler = nova::Compiler::new(cfg);
//! let report = compiler
//!     .compile("fun main() { let (a, b) = sram(0); sram(8) <- (a + b, a); 0 }")
//!     .unwrap();
//! assert!(ixp_machine::validate(&report.artifact.prog).is_empty());
//! assert_eq!(report.artifact.alloc_stats.spills, 0);
//! ```

#![warn(missing_docs)]

mod lru;
mod persist;
mod session;

pub use session::{CacheStats, Compiler};

use nova_backend::alloc::AllocConfig;
use nova_cps::{OptConfig, SsuStats};
use nova_frontend::StaticStats;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub use ixp_machine::channel::{ChannelFaults, ChannelStats};
pub use ixp_sim::{
    big_bang_rollout, image_checksum, simulate_chip, simulate_chip_reload, simulate_chip_with,
    simulate_topology, staged_rollout, ChipConfig, ChipShard, DisruptionReport, EngineStats,
    FlowPacket, HealthSlo, ImageSwap, LatencySummary, RollbackReason, RolloutConfig, RolloutFaults,
    RolloutOutcome, RolloutReport, RxGrant, SimMemory, SimMode, SimResult, StageOutcome,
    StageReport, StopReason, SwapOutcome, SwapReport, TopologyConfig, TopologyError,
    TopologyResult, TrafficSpec, WindowHealth,
};
pub use nova_backend::{AllocQuality, AllocStats, FallbackPolicy};
pub use nova_frontend::Span;
pub use nova_obs::{
    Event, EventKind, JsonLinesRecorder, MemoryRecorder, Obs, Recorder, Summary, TeeRecorder,
};

/// Retention budget for each of a session's two maps (whole-image
/// cache, allocation cache). The default
/// (`0` on both axes) is unbounded — the historical behavior, and what
/// keeps short-lived CI streams' counter algebra exact. A long-lived
/// service sets one or both axes; the session then evicts
/// least-recently-used entries *per map* on insertion, counting
/// them under `session.cache.evict.{count,bytes}` and
/// [`CacheStats::evict_count`]/[`CacheStats::evict_bytes`].
///
/// Eviction affects retention only: a re-compile after an eviction
/// recomputes a bit-identical artifact (it is just no longer free).
/// Byte weights are deterministic estimates of each artifact's retained
/// size, not exact heap measurements — budget in round numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheBudget {
    /// Maximum entries per map (`0` = unbounded).
    pub max_entries: usize,
    /// Maximum estimated bytes per map (`0` = unbounded).
    pub max_bytes: u64,
}

impl CacheBudget {
    /// Cap each map at `n` entries.
    pub fn entries(n: usize) -> Self {
        CacheBudget {
            max_entries: n,
            max_bytes: 0,
        }
    }

    /// Cap each map at approximately `n` bytes.
    pub fn bytes(n: u64) -> Self {
        CacheBudget {
            max_entries: 0,
            max_bytes: n,
        }
    }
}

/// Pipeline configuration. Construct with [`CompileConfig::builder`];
/// the fields stay public for read access and ablation experiments that
/// rewrite optimizer or allocator internals after building.
#[derive(Debug, Clone)]
pub struct CompileConfig {
    /// CPS optimizer settings.
    pub opt: OptConfig,
    /// Allocator / ILP settings.
    pub alloc: AllocConfig,
    /// Skip the optimizer (for ablations and debugging).
    pub skip_opt: bool,
    /// Observability handle every phase reports into. Defaults to the
    /// no-op handle, which costs one branch per instrumentation site.
    pub observer: Obs,
    /// Per-map retention budget of the session (default: unbounded).
    pub cache_budget: CacheBudget,
    /// Directory of the on-disk allocation cache. `None` (the default)
    /// disables persistence; when set, sessions write every solved
    /// allocation there and a restarted session warms from it (see
    /// `session.cache.disk.*` counters).
    pub persist_dir: Option<PathBuf>,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig::builder().build()
    }
}

impl CompileConfig {
    /// Start building a configuration.
    pub fn builder() -> CompileConfigBuilder {
        CompileConfigBuilder::new()
    }
}

/// Builder for [`CompileConfig`].
///
/// Marked non-exhaustive: construct via [`CompileConfig::builder`] so
/// added knobs stay source-compatible.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CompileConfigBuilder {
    opt: OptConfig,
    alloc: AllocConfig,
    skip_opt: bool,
    deadline: Option<Duration>,
    gap: Option<f64>,
    observer: Obs,
    cache_budget: CacheBudget,
    persist_dir: Option<PathBuf>,
}

impl Default for CompileConfigBuilder {
    fn default() -> Self {
        CompileConfigBuilder::new()
    }
}

impl CompileConfigBuilder {
    fn new() -> Self {
        CompileConfigBuilder {
            opt: OptConfig::default(),
            alloc: AllocConfig::default(),
            skip_opt: false,
            deadline: None,
            gap: None,
            observer: Obs::noop(),
            cache_budget: CacheBudget::default(),
            persist_dir: None,
        }
    }

    /// Attach a [`Recorder`] that receives every span, counter, and
    /// sample the compile pipeline emits.
    #[must_use]
    pub fn observer(mut self, recorder: impl Recorder + 'static) -> Self {
        self.observer = Obs::new(recorder);
        self
    }

    /// Attach an already-built observability handle (for sharing one
    /// handle — or [`Obs::noop`] — across several configurations).
    #[must_use]
    pub fn observer_handle(mut self, obs: Obs) -> Self {
        self.observer = obs;
        self
    }

    /// Inert: the tree search is serial. Kept only because the frozen
    /// `benchmark/src/pins.rs` calls it; goes with the next benchmark PR.
    #[doc(hidden)]
    #[must_use]
    pub fn solver_threads(self, _: usize) -> Self {
        self
    }

    /// Wall-clock budget for each ILP solve; `None` (the default) means
    /// unlimited.
    #[must_use]
    pub fn solver_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Relative optimality gap at which the solver stops (the paper ran
    /// CPLEX within 0.01%, i.e. `1e-4`, the default). `0.0` demands the
    /// exact optimum.
    #[must_use]
    pub fn solver_gap(mut self, gap: f64) -> Self {
        self.gap = Some(gap);
        self
    }

    /// What allocation does when the exact ILP cannot prove a solution
    /// within its budget. The default, [`FallbackPolicy::Ladder`],
    /// retries through relaxations down to a greedy allocator, so
    /// compilation always terminates with *some* verified allocation;
    /// [`FallbackPolicy::Fail`] restores the historical hard error.
    #[must_use]
    pub fn fallback_policy(mut self, policy: FallbackPolicy) -> Self {
        self.alloc.fallback = policy;
        self
    }

    /// Bound each of the session's maps (see [`CacheBudget`]).
    /// The default is unbounded; long-lived services should set this.
    #[must_use]
    pub fn cache_budget(mut self, budget: CacheBudget) -> Self {
        self.cache_budget = budget;
        self
    }

    /// Persist solved allocations to `dir` and warm future sessions from
    /// it. The directory is created on first use; corrupt or truncated
    /// entries load as clean misses (`session.cache.disk.reject`), and a
    /// restarted session's warm artifacts are bit-identical to cold
    /// compiles.
    #[must_use]
    pub fn persist_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist_dir = Some(dir.into());
        self
    }

    /// Skip the CPS optimizer (ablations and debugging).
    #[must_use]
    pub fn skip_opt(mut self, skip: bool) -> Self {
        self.skip_opt = skip;
        self
    }

    /// Replace the CPS optimizer settings wholesale.
    #[must_use]
    pub fn opt(mut self, opt: OptConfig) -> Self {
        self.opt = opt;
        self
    }

    /// Replace the allocator settings wholesale. Solver knobs set through
    /// this builder (deadline, gap) still apply on top at build time.
    #[must_use]
    pub fn alloc(mut self, alloc: AllocConfig) -> Self {
        self.alloc = alloc;
        self
    }

    /// Produce the final configuration.
    pub fn build(self) -> CompileConfig {
        let mut alloc = self.alloc;
        alloc.solver.time_limit = self.deadline;
        if let Some(gap) = self.gap {
            alloc.solver.relative_gap = gap;
        }
        CompileConfig {
            opt: self.opt,
            alloc,
            skip_opt: self.skip_opt,
            observer: self.observer,
            cache_budget: self.cache_budget,
            persist_dir: self.persist_dir,
        }
    }
}

/// Everything the compiler produces for one program.
///
/// Clonable so a [`Compiler`] session can cache one compile and hand the
/// result to multiple clients (the CPS is shared, not copied).
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// Allocated, validated machine code.
    pub prog: ixp_machine::Program<ixp_machine::PhysReg>,
    /// Figure-5 static statistics of the source.
    pub static_stats: StaticStats,
    /// The optimized CPS (kept for oracle comparisons).
    pub cps: Arc<nova_cps::Cps>,
    /// Optimizer statistics.
    pub opt_stats: nova_cps::OptStats,
    /// SSU statistics.
    pub ssu_stats: SsuStats,
    /// ILP model and solver statistics (Figures 6 and 7).
    pub alloc_stats: nova_backend::AllocStats,
    /// Which rung of the allocation fallback ladder produced the code and
    /// how far from proven-optimal it is. Stage 0 with
    /// `proven_optimal` means the exact ILP finished inside its budget;
    /// higher stages mean the build is degraded (and should be excluded
    /// from performance-floor comparisons).
    pub alloc_quality: AllocQuality,
    /// Machine instruction count of the final program.
    pub code_size: usize,
}

impl CompileOutput {
    /// Deterministic-artifact equality: two outputs agree on the machine
    /// program, the CPS, and every statistic that is a pure function of
    /// the input — everything except solver wall-clock timing, which
    /// differs run to run even for identical inputs. This is the "warm
    /// compile is bit-identical to cold" check used by the session cache
    /// tests and the service bench.
    pub fn artifact_eq(&self, other: &CompileOutput) -> bool {
        self.prog == other.prog
            && self.static_stats == other.static_stats
            && self.cps == other.cps
            && self.opt_stats == other.opt_stats
            && self.ssu_stats == other.ssu_stats
            && self.code_size == other.code_size
            && self.alloc_stats.moves == other.alloc_stats.moves
            && self.alloc_stats.spills == other.alloc_stats.spills
            && self.alloc_stats.objective == other.alloc_stats.objective
            && self.alloc_quality.stage == other.alloc_quality.stage
            && self.alloc_quality.spills == other.alloc_quality.spills
    }
}

/// The pipeline phase a diagnostic originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Lexing and parsing.
    Parse,
    /// Type checking.
    Typecheck,
    /// CPS conversion.
    CpsConvert,
    /// CPS optimization (including label specialization).
    CpsOptimize,
    /// Static-single-use conversion and checking.
    Ssu,
    /// Instruction selection.
    Isel,
    /// ILP bank/register allocation.
    Alloc,
    /// Post-allocation code generation: solution extraction, A/B
    /// coloring, verification, machine-rule validation.
    Codegen,
    /// Not a pipeline phase: failures injected by the serving layer
    /// around the compiler (worker panics, deadlines, load shedding).
    Service,
}

impl Phase {
    /// Stable lowercase phase name (`"parse"`, `"typecheck"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Typecheck => "typecheck",
            Phase::CpsConvert => "cps-convert",
            Phase::CpsOptimize => "cps-optimize",
            Phase::Ssu => "ssu",
            Phase::Isel => "isel",
            Phase::Alloc => "alloc",
            Phase::Codegen => "codegen",
            Phase::Service => "service",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured pipeline failure: the phase that produced it, a
/// machine-readable code, the source span when the phase tracks one, and
/// the rendered human-readable message. Comparable and clonable so a
/// [`Compiler`] session can cache a failed compile and return the same
/// diagnostic to every client that submits the same input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Which phase failed.
    pub phase: Phase,
    /// Machine-readable diagnostic code, stable across message rewording
    /// (e.g. `"E-PARSE"`, `"E-DYNCALL"`).
    pub code: &'static str,
    /// Source region the diagnostic points at, when the failing phase
    /// still tracks source positions (frontend phases do; backend phases
    /// operate on CPS/machine code and do not).
    pub span: Option<Span>,
    /// Rendered message (with `line:col` coordinates when a span exists).
    pub message: String,
}

impl CompileError {
    fn new(phase: Phase, code: &'static str, message: impl std::fmt::Display) -> Self {
        CompileError {
            phase,
            code,
            span: None,
            message: message.to_string(),
        }
    }

    fn with_span(
        phase: Phase,
        code: &'static str,
        source: &str,
        d: &nova_frontend::Diagnostic,
    ) -> Self {
        CompileError {
            phase,
            code,
            span: Some(d.span),
            message: d.render(source),
        }
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} [{}]", self.phase, self.message, self.code)
    }
}

impl std::error::Error for CompileError {}

/// A compile together with the structured trace it produced: the
/// [`CompileOutput`] artifact plus an aggregated [`Summary`] of every
/// span, counter, and sample the phases emitted. Returned by
/// [`Compiler::compile`] and the free [`compile`].
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// The compiled artifact and its statistics.
    pub artifact: CompileOutput,
    /// Aggregated trace: per-phase wall time (`phase.*` spans), optimizer
    /// shrink counts, solver telemetry, allocator decisions.
    pub trace: Summary,
}

/// Compile Nova source text and return the artifact together with an
/// aggregated trace of the run, through a throwaway [`Compiler`] session.
///
/// An in-memory recorder is teed with the configured
/// [`CompileConfig::observer`] for the duration of the compile, so an
/// attached JSON-lines sink still sees every event while the caller gets
/// the aggregate [`Summary`] (per-phase wall time under `phase.*`,
/// optimizer pass shrink counts under `cps.pass.*`, solver telemetry
/// under `ilp.*`, allocator decisions under `backend.*`).
///
/// Callers that compile more than once should hold a [`Compiler`]
/// instead: the session's caches turn repeat and near-repeat compiles
/// into full or allocation-only cache hits.
///
/// # Errors
///
/// Same contract as [`Compiler::compile`].
pub fn compile(source: &str, config: &CompileConfig) -> Result<CompileReport, CompileError> {
    Compiler::new(config.clone()).compile(source)
}

/// The frontend phase boundary: lex, parse, and type check under a
/// `phase.frontend` span.
fn frontend_phase(
    source: &str,
    obs: &Obs,
) -> Result<(nova_frontend::Program, nova_frontend::TypeInfo, StaticStats), CompileError> {
    let frontend_span = obs.span("phase.frontend");
    let program = nova_frontend::parse_with(source, obs)
        .map_err(|d| CompileError::with_span(Phase::Parse, "E-PARSE", source, &d))?;
    let info = nova_frontend::check_with(&program, obs)
        .map_err(|d| CompileError::with_span(Phase::Typecheck, "E-TYPE", source, &d))?;
    let static_stats = program.static_stats();
    frontend_span.end();
    Ok((program, info, static_stats))
}

/// The CPS phase boundary: conversion, optimization (or bare label
/// specialization), and SSU under a `phase.cps` span.
fn cps_phase(
    program: &nova_frontend::Program,
    info: &nova_frontend::TypeInfo,
    source: &str,
    config: &CompileConfig,
    obs: &Obs,
) -> Result<(nova_cps::Cps, nova_cps::OptStats, SsuStats), CompileError> {
    let cps_span = obs.span("phase.cps");
    let mut cps = {
        let _convert = obs.span("cps.convert");
        nova_cps::convert(program, info)
            .map_err(|d| CompileError::with_span(Phase::CpsConvert, "E-CPS", source, &d))?
    };
    let opt_stats = if config.skip_opt {
        // Even unoptimized builds need static call targets (label
        // specialization is a backend requirement, not an optimization).
        nova_cps::specialize(&mut cps)
    } else {
        nova_cps::optimize_with(&mut cps, &config.opt, obs)
    };
    if !nova_cps::all_calls_static(&cps) {
        return Err(CompileError::new(
            Phase::CpsOptimize,
            "E-DYNCALL",
            "a dynamic call target survived label specialization; \
             the IXP has no indirect branch",
        ));
    }
    let ssu_stats = {
        let _ssu = obs.span("cps.ssu");
        nova_cps::to_ssu(&mut cps)
    };
    nova_cps::check_ssu(&cps).map_err(|m| CompileError::new(Phase::Ssu, "E-SSU", m))?;
    cps_span.end();
    Ok((cps, opt_stats, ssu_stats))
}

/// The instruction-selection phase boundary, under `phase.codegen` /
/// `backend.isel` spans.
fn isel_phase(
    cps: &nova_cps::Cps,
    obs: &Obs,
) -> Result<ixp_machine::Program<ixp_machine::Temp>, CompileError> {
    let _codegen = obs.span("phase.codegen");
    let _isel = obs.span("backend.isel");
    nova_backend::select(cps).map_err(|e| CompileError::new(Phase::Isel, "E-ISEL", e))
}

/// Map an allocator failure onto the pipeline's diagnostic taxonomy.
fn alloc_error(e: nova_backend::AllocError) -> CompileError {
    match e {
        // Bank-assignment failures (solver or greedy constraints).
        nova_backend::AllocError::Solver(_) | nova_backend::AllocError::Greedy(_) => {
            CompileError::new(Phase::Alloc, "E-ALLOC", e)
        }
        // Downstream code generation on a feasible assignment.
        nova_backend::AllocError::Extract(_)
        | nova_backend::AllocError::Color(_)
        | nova_backend::AllocError::Invalid(_)
        | nova_backend::AllocError::Verify(_) => CompileError::new(Phase::Codegen, "E-CODEGEN", e),
    }
}
