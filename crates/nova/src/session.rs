//! Session-based compilation: one lex and two caches.
//!
//! A [`Compiler`] lexes every submission (the comment-free token stream is
//! the content hash everything keys on) and then runs a straight-line
//! pipeline behind two content-hash caches:
//!
//! 1. the **whole-image cache** — (token fingerprint, pipeline config) →
//!    finished compile or its diagnostic. A hit runs nothing else.
//! 2. frontend → CPS → instruction selection, as plain function calls.
//!    These phases are cheap and, within one session, keyed on exactly
//!    what the whole-image cache is keyed on, so memoizing them never hit
//!    (0 hits in every gated baseline); they are not cached.
//! 3. the **allocation cache** — (immediate-masked vprog fingerprint,
//!    allocator config) → solved MILP artifacts, backed by the optional
//!    on-disk cache.
//!
//! | edit kind            | re-runs                                   |
//! |----------------------|-------------------------------------------|
//! | comment / whitespace | nothing (whole-image hit)                 |
//! | rule constant        | frontend → isel (cheap); allocation is    |
//! |                      | *re-finished* from the cached MILP answer |
//! | structural           | everything (a cold compile)               |
//!
//! The expensive phase is the MILP bank-allocation solve, and it never
//! reads immediate values: fact extraction pattern-matches operand
//! *shapes*, and frequency estimation reads only branch structure. The
//! allocation cache therefore keys on an **immediate-masked** fingerprint
//! of the virtual-register program — two programs that differ only in
//! constants share one solved model, and the warm compile re-runs only
//! extraction/coloring/validation against the new program, which is
//! bit-identical to what a cold solve would produce.
//!
//! A session's configuration is fixed, so the allocation key is a function
//! of the program alone and it is the *only* key on the allocation path:
//! a structure that misses it has never been solved by this session (or
//! its on-disk predecessor) and pays one full solve, started in exactly
//! one place ([`Compiler::allocate_cached`]). Nothing is carried from one
//! structure's solve to another's.
//!
//! Every image miss reaches exactly one allocation lookup unless a
//! frontend phase fails first, so for a stream of well-formed programs
//! `alloc_hits + alloc_misses == output_misses`.
//!
//! Sessions are cheap to [`Clone`]: clones share the same caches, which
//! is how the `nova-server` worker pool gives every client the benefit
//! of every other client's compiles.

use crate::lru::LruMap;
use crate::persist::{DiskCache, DiskEntry, Load};
use crate::{
    alloc_error, cps_phase, frontend_phase, isel_phase, CompileConfig, CompileError, CompileOutput,
    CompileReport, Phase,
};
use ilp::BranchConfig;
use ixp_machine::{Addr, AluSrc, Instr, Program, Temp, Terminator};
use nova_backend::alloc::AllocConfig;
use nova_backend::{
    allocate_solved_with, readopt_assignment_with, refinish_with, Allocation, SolvedAllocation,
};
use nova_cps::OptConfig;
use nova_frontend::Token;
use nova_obs::{MemoryRecorder, Obs, Recorder, TeeRecorder};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One cache's counter pair.
#[derive(Default)]
struct HitMiss {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl HitMiss {
    /// Count one lookup, under the stable counter name of its outcome
    /// (`names` is the cache's `[hit, miss]` pair) so summaries and the
    /// service bench can read hit rates straight off the trace.
    fn record(&self, obs: &Obs, names: [&'static str; 2], hit: bool) {
        let (slot, name) = if hit {
            (&self.hits, names[0])
        } else {
            (&self.misses, names[1])
        };
        slot.fetch_add(1, Ordering::Relaxed);
        obs.counter(name, 1);
    }

    fn snapshot(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

const OUTPUT_COUNTERS: [&str; 2] = ["session.cache.output.hit", "session.cache.output.miss"];
const ALLOC_COUNTERS: [&str; 2] = ["session.cache.alloc.hit", "session.cache.alloc.miss"];

/// Shared mutable state of one session: the two caches, the optional
/// on-disk allocation cache, and the counters. Each map tracks LRU recency so a [`crate::CacheBudget`] can
/// bound retention.
#[derive(Default)]
struct SessionState {
    /// (immediate-masked vprog fp, allocator config) → solved artifacts.
    alloc: Mutex<LruMap<Arc<SolvedAllocation>>>,
    /// (token fp, full pipeline config) → finished compile (or failure).
    output: Mutex<LruMap<Result<Arc<CompileOutput>, CompileError>>>,
    /// The on-disk allocation cache, when persistence is configured.
    disk: Option<DiskCache>,
    alloc_stats: HitMiss,
    output_stats: HitMiss,
    refinish_fallbacks: AtomicU64,
    evict_count: AtomicU64,
    evict_bytes: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_rejects: AtomicU64,
}

/// A point-in-time snapshot of a session's cache counters: one
/// (hits, misses) pair per cache, plus the fallback, eviction and disk
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Allocation cache hits (MILP solve skipped, re-finish only).
    pub alloc_hits: u64,
    /// Allocation cache misses (full solve ran).
    pub alloc_misses: u64,
    /// Whole-image cache hits (nothing re-ran).
    pub output_hits: u64,
    /// Whole-image cache misses.
    pub output_misses: u64,
    /// Allocation cache hits whose re-finish failed, forcing a fallback
    /// full solve (counted under `alloc_misses` as well).
    pub refinish_fallbacks: u64,
    /// Entries evicted from the session's caches under a
    /// [`crate::CacheBudget`] (zero when unbounded, the default).
    pub evict_count: u64,
    /// Estimated bytes those evictions released.
    pub evict_bytes: u64,
    /// Disk-cache lookups that loaded and readopted a persisted
    /// allocation (the MILP solve was skipped; also counted as
    /// `alloc_hits`). Zero when persistence is off.
    pub disk_hits: u64,
    /// Disk-cache lookups that found no entry.
    pub disk_misses: u64,
    /// Disk-cache lookups that found an entry but refused it: corrupt or
    /// truncated bytes, a stale format version, or an assignment the
    /// current program rejects. Always a clean miss, never a failure.
    pub disk_rejects: u64,
}

impl CacheStats {
    /// Hit rate of one (hits, misses) pair; `None` when nothing was
    /// looked up.
    #[allow(clippy::cast_precision_loss)]
    fn rate(hits: u64, misses: u64) -> Option<f64> {
        let total = hits + misses;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }

    /// Allocation-phase hit rate, if any allocations were attempted.
    pub fn alloc_hit_rate(&self) -> Option<f64> {
        Self::rate(self.alloc_hits, self.alloc_misses)
    }

    /// Whole-image hit rate, if any compiles ran.
    pub fn output_hit_rate(&self) -> Option<f64> {
        Self::rate(self.output_hits, self.output_misses)
    }

    /// Always `None`: the frontend cache is gone (it never recorded a
    /// hit). Kept only because the frozen `benchmark/` package calls it
    /// for its `nova.cache.frontend_hit_rate` row, which therefore reads
    /// 0; remove both with the next benchmark change (see ROADMAP).
    pub fn frontend_hit_rate(&self) -> Option<f64> {
        None
    }
}

/// A compile session: a handle over one [`CompileConfig`] plus
/// persistent image and allocation caches. The primary compilation entry
/// point.
///
/// Cloning is cheap and shares the caches — hand clones to worker
/// threads to serve concurrent clients from one artifact pool.
#[derive(Clone)]
pub struct Compiler {
    config: CompileConfig,
    /// Fingerprint of the allocator slice of the config.
    alloc_fp: u64,
    /// Combined fingerprint of every config slice the pipeline reads.
    pipeline_fp: u64,
    state: Arc<SessionState>,
}

impl std::fmt::Debug for Compiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compiler")
            .field("config", &self.config)
            .field("cache_stats", &self.cache_stats())
            .finish()
    }
}

impl Compiler {
    /// Create a session from a configuration. The configuration is fixed
    /// for the session's lifetime (its fingerprints key every cache);
    /// use one session per configuration.
    pub fn new(config: CompileConfig) -> Self {
        let (alloc_fp, pipeline_fp) = config_fingerprints(&config);
        // An uncreatable persistence directory silently disables the disk
        // cache: persistence accelerates restarts, it never gates them.
        let disk = config.persist_dir.as_deref().and_then(DiskCache::open);
        Compiler {
            config,
            alloc_fp,
            pipeline_fp,
            state: Arc::new(SessionState {
                disk,
                ..SessionState::default()
            }),
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &CompileConfig {
        &self.config
    }

    /// Current cache counters (cumulative across clones of this session).
    pub fn cache_stats(&self) -> CacheStats {
        let s = &self.state;
        let (alloc_hits, alloc_misses) = s.alloc_stats.snapshot();
        let (output_hits, output_misses) = s.output_stats.snapshot();
        CacheStats {
            alloc_hits,
            alloc_misses,
            output_hits,
            output_misses,
            refinish_fallbacks: s.refinish_fallbacks.load(Ordering::Relaxed),
            evict_count: s.evict_count.load(Ordering::Relaxed),
            evict_bytes: s.evict_bytes.load(Ordering::Relaxed),
            disk_hits: s.disk_hits.load(Ordering::Relaxed),
            disk_misses: s.disk_misses.load(Ordering::Relaxed),
            disk_rejects: s.disk_rejects.load(Ordering::Relaxed),
        }
    }

    /// Compile source text, returning the artifact plus an aggregated
    /// trace of whatever actually ran (a full cache hit produces a
    /// near-empty trace: the lex, the lookup counters, nothing else).
    ///
    /// # Errors
    ///
    /// The first [`CompileError`] of whichever phase fails. Failures are
    /// cached like successes: resubmitting a broken input returns the
    /// same diagnostic without re-running the failing phase.
    pub fn compile(&self, source: &str) -> Result<CompileReport, CompileError> {
        let memory = MemoryRecorder::new();
        let obs = if self.config.observer.enabled() {
            Obs::new(TeeRecorder::new(vec![
                Arc::new(memory.clone()) as Arc<dyn Recorder>,
                self.config
                    .observer
                    .recorder()
                    .expect("enabled observer has a recorder"),
            ]))
        } else {
            Obs::new(memory.clone())
        };
        let artifact = self.compile_cached(source, &obs)?;
        Ok(CompileReport {
            artifact,
            trace: memory.summary(),
        })
    }

    /// [`compile`](Self::compile) without the trace tee: telemetry goes
    /// only to the configured observer.
    ///
    /// # Errors
    ///
    /// Same contract as [`compile`](Self::compile).
    pub fn compile_output(&self, source: &str) -> Result<CompileOutput, CompileError> {
        let obs = self.config.observer.clone();
        self.compile_cached(source, &obs)
    }

    /// The whole-image lookup, and behind a miss the straight-line
    /// pipeline, whose result (success or failure) is memoized.
    fn compile_cached(&self, source: &str, obs: &Obs) -> Result<CompileOutput, CompileError> {
        let state = &*self.state;
        // Lexing is the one phase that always runs: its token stream is
        // the content hash the image key derives from. The lexer drops
        // comments and the fingerprint drops spans, so edits to either
        // are full cache hits.
        let tokens = nova_frontend::lex(source)
            .map_err(|d| CompileError::with_span(Phase::Parse, "E-PARSE", source, &d))?;
        let tok_fp = fingerprint_tokens(&tokens);
        drop(tokens);

        let out_key = hash_parts(&[0x6f75_7470, tok_fp, self.pipeline_fp]);
        if let Some(cached) = state.output.lock().unwrap().get(out_key).cloned() {
            state.output_stats.record(obs, OUTPUT_COUNTERS, true);
            return cached.map(|arc| (*arc).clone());
        }
        state.output_stats.record(obs, OUTPUT_COUNTERS, false);

        let result = self.compile_phases(source, obs);
        let (memo, artifact_bytes) = match &result {
            Ok(out) => (
                Ok(Arc::new(out.clone())),
                256 + 48 * instr_count(&out.prog) + 8 * source.len() as u64,
            ),
            Err(e) => (Err(e.clone()), e.message.len() as u64),
        };
        self.insert_evicting(&state.output, out_key, memo, 64 + artifact_bytes, obs);
        result
    }

    /// Insert into one cache under the session's budget, folding
    /// whatever got evicted into the counters.
    fn insert_evicting<V>(
        &self,
        cache: &Mutex<LruMap<V>>,
        key: u64,
        val: V,
        weight: u64,
        obs: &Obs,
    ) {
        let (count, bytes) =
            cache
                .lock()
                .unwrap()
                .insert(key, val, weight, &self.config.cache_budget);
        if count > 0 {
            self.state.evict_count.fetch_add(count, Ordering::Relaxed);
            self.state.evict_bytes.fetch_add(bytes, Ordering::Relaxed);
            obs.counter("session.cache.evict.count", count);
            obs.counter("session.cache.evict.bytes", bytes);
        }
    }

    /// The pipeline behind a whole-image miss: frontend, CPS and
    /// instruction selection run unconditionally; only allocation is
    /// cached.
    fn compile_phases(&self, source: &str, obs: &Obs) -> Result<CompileOutput, CompileError> {
        let (program, info, static_stats) = frontend_phase(source, obs)?;
        let (cps, opt_stats, ssu_stats) = cps_phase(&program, &info, source, &self.config, obs)?;
        let vprog = isel_phase(&cps, obs)?;
        let allocation = self.allocate_cached(&vprog, obs)?;

        let code_size = allocation.prog.len();
        Ok(CompileOutput {
            prog: allocation.prog,
            static_stats,
            cps: Arc::new(cps),
            opt_stats,
            ssu_stats,
            alloc_stats: allocation.stats,
            alloc_quality: allocation.quality,
            code_size,
        })
    }

    /// Allocation with the immediate-masked cache: an in-memory hit skips
    /// the MILP solve entirely and re-finishes the cached assignment
    /// against this (structurally identical) program; on a miss the
    /// on-disk cache (if configured) is consulted and a persisted
    /// assignment is readopted — still no solve; only when both miss does
    /// a full solve run.
    fn allocate_cached(
        &self,
        vprog: &Program<Temp>,
        obs: &Obs,
    ) -> Result<Allocation, CompileError> {
        let state = &*self.state;
        let masked_fp = masked_program_fp(vprog);
        let alloc_key = hash_parts(&[0x0061_6c6c_6f63, masked_fp, self.alloc_fp]);

        let cached = state.alloc.lock().unwrap().get(alloc_key).cloned();
        if let Some(solved) = cached {
            match refinish_with(vprog, &solved, obs) {
                Ok(alloc) => {
                    state.alloc_stats.record(obs, ALLOC_COUNTERS, true);
                    return Ok(alloc);
                }
                Err(_) => {
                    // A masked-fingerprint collision or a cached artifact
                    // the new program rejects: fall back to a full solve
                    // rather than failing the compile.
                    state.refinish_fallbacks.fetch_add(1, Ordering::Relaxed);
                    obs.counter("session.cache.refinish_fallback", 1);
                }
            }
        } else if let Some(disk) = &state.disk {
            // Restart warm path: the predecessor session persisted the
            // decision half of this solve; readopting it rebuilds the
            // deterministic rest and skips the MILP. Every lookup lands
            // on exactly one of hit/miss/reject.
            match disk.load(alloc_key) {
                Load::Hit(entry) => {
                    match readopt_assignment_with(
                        vprog,
                        &self.config.alloc,
                        entry.asg,
                        entry.quality,
                        entry.objective,
                        obs,
                    ) {
                        Ok((alloc, solved)) => {
                            state.disk_hits.fetch_add(1, Ordering::Relaxed);
                            obs.counter("session.cache.disk.hit", 1);
                            state.alloc_stats.record(obs, ALLOC_COUNTERS, true);
                            self.remember_solved(alloc_key, solved, obs);
                            return Ok(alloc);
                        }
                        Err(_) => {
                            // The entry decoded but this program rejects
                            // it (stale key, collision): a reject, and
                            // the full solve below recovers.
                            state.disk_rejects.fetch_add(1, Ordering::Relaxed);
                            obs.counter("session.cache.disk.reject", 1);
                        }
                    }
                }
                Load::Miss => {
                    state.disk_misses.fetch_add(1, Ordering::Relaxed);
                    obs.counter("session.cache.disk.miss", 1);
                }
                Load::Reject => {
                    state.disk_rejects.fetch_add(1, Ordering::Relaxed);
                    obs.counter("session.cache.disk.reject", 1);
                }
            }
        }
        state.alloc_stats.record(obs, ALLOC_COUNTERS, false);

        let (alloc, solved) =
            allocate_solved_with(vprog, &self.config.alloc, obs).map_err(alloc_error)?;
        if let Some(disk) = &state.disk {
            disk.store(
                alloc_key,
                &DiskEntry {
                    objective: solved.stats.objective,
                    quality: solved.quality,
                    asg: solved.asg.clone(),
                },
            );
        }
        self.remember_solved(alloc_key, solved, obs);
        Ok(alloc)
    }

    /// Put a solved allocation into the in-memory allocation cache.
    fn remember_solved(&self, alloc_key: u64, solved: SolvedAllocation, obs: &Obs) {
        let weight = weight_solved(&solved);
        self.insert_evicting(&self.state.alloc, alloc_key, Arc::new(solved), weight, obs);
    }
}

/// Machine-instruction count of a program (any register type).
fn instr_count<R>(p: &Program<R>) -> u64 {
    p.blocks.iter().map(|b| b.instrs.len() as u64).sum()
}

/// Estimated retained bytes of a cached [`SolvedAllocation`]: the decoded
/// assignment dominates, plus a flat charge for the facts and model
/// bookkeeping.
fn weight_solved(s: &SolvedAllocation) -> u64 {
    let asg = 24 * (s.asg.before.len() + s.asg.after.len() + s.asg.colors.len()) as u64;
    let facts = 48 * s.facts.exists.len() as u64;
    4096 + asg + facts
}

/// Deterministic (fixed-key SipHash) combination of pre-hashed parts.
fn hash_parts(parts: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    for p in parts {
        p.hash(&mut h);
    }
    h.finish()
}

/// Version of the cache-key derivation below. It seeds every config
/// fingerprint, and through the allocation key names the on-disk cache
/// files: bump it whenever a knob's meaning changes, a knob joins or
/// leaves a key, or the allocator's output for an unchanged
/// (program, config) pair changes — old entries then miss cleanly.
const KEY_VERSION: u64 = 2;

/// The session's two config fingerprints, `(alloc, pipeline)` — the
/// second extends the first — hashed field by field from [`KEY_VERSION`].
///
/// Every config struct is destructured without `..`, so a new field does
/// not compile until someone decides which keys it belongs to. A field
/// belongs to a key iff changing it can change the artifact stored under
/// that key:
///
/// * *alloc* — every allocator knob (model shape, costs, search,
///   fallback): the allocation cache key, in memory and on disk;
/// * *pipeline* — alloc plus the optimizer knobs: the whole-image key.
fn config_fingerprints(config: &CompileConfig) -> (u64, u64) {
    let CompileConfig {
        opt: OptConfig {
            max_rounds,
            max_size,
        },
        alloc:
            AllocConfig {
                allow_spill,
                redundant_cuts,
                bias,
                prune,
                mv_cost,
                ld_cost,
                st_cost,
                k_a,
                k_b,
                spill_auto,
                solver:
                    BranchConfig {
                        relative_gap,
                        max_nodes,
                        time_limit,
                        int_tol,
                        fathom_abs,
                        fathom_rel,
                        presolve,
                        cuts,
                    },
                fallback,
            },
        skip_opt,
        observer: _,
        cache_budget: _,
        persist_dir: _,
    } = config;

    let mut alloc = DefaultHasher::new();
    KEY_VERSION.hash(&mut alloc);
    (allow_spill, redundant_cuts, prune, k_a, k_b, spill_auto).hash(&mut alloc);
    let costs_and_tolerances = [
        bias,
        mv_cost,
        ld_cost,
        st_cost,
        relative_gap,
        int_tol,
        fathom_abs,
        fathom_rel,
    ];
    costs_and_tolerances.map(|x| x.to_bits()).hash(&mut alloc);
    (max_nodes, time_limit, presolve, cuts).hash(&mut alloc);
    (*fallback as u8).hash(&mut alloc);

    let mut pipeline = alloc.clone();
    (max_rounds, max_size, skip_opt).hash(&mut pipeline);

    (alloc.finish(), pipeline.finish())
}

/// Content hash of a token stream with spans dropped: the token kind,
/// the literal value, and the identifier text. Two sources that differ
/// only in comments or layout fingerprint identically (the lexer never
/// emits comment tokens).
fn fingerprint_tokens(tokens: &[Token]) -> u64 {
    let mut h = DefaultHasher::new();
    tokens.len().hash(&mut h);
    for t in tokens {
        std::mem::discriminant(&t.tok).hash(&mut h);
        t.value.hash(&mut h);
        t.text.hash(&mut h);
    }
    h.finish()
}

/// Fingerprint of a virtual-register program with immediate *values*
/// masked out (their positions still hash). Sound as an allocation cache
/// key because no allocation-phase input reads immediate values: fact
/// extraction matches operand shapes (`AluSrc::Imm(_)`), and frequency
/// estimation reads only branch/block structure. Everything allocation
/// *does* read — opcodes, register structure, memory spaces, aggregate
/// widths, conditions, control flow — hashes fully.
fn masked_program_fp(prog: &Program<Temp>) -> u64 {
    let mut h = DefaultHasher::new();
    prog.entry.hash(&mut h);
    prog.blocks.len().hash(&mut h);
    for block in &prog.blocks {
        block.instrs.len().hash(&mut h);
        for ins in &block.instrs {
            hash_instr_masked(ins, &mut h);
        }
        match &block.term {
            Terminator::Jump(t) => {
                0u8.hash(&mut h);
                t.hash(&mut h);
            }
            Terminator::Branch {
                cond,
                a,
                b,
                if_true,
                if_false,
            } => {
                1u8.hash(&mut h);
                cond.hash(&mut h);
                a.hash(&mut h);
                hash_alusrc_masked(b, &mut h);
                if_true.hash(&mut h);
                if_false.hash(&mut h);
            }
            Terminator::Halt => 2u8.hash(&mut h),
        }
    }
    h.finish()
}

fn hash_alusrc_masked<H: Hasher>(src: &AluSrc<Temp>, h: &mut H) {
    match src {
        AluSrc::Reg(r) => {
            0u8.hash(h);
            r.hash(h);
        }
        AluSrc::Imm(_) => 1u8.hash(h),
    }
}

fn hash_addr_masked<H: Hasher>(addr: &Addr<Temp>, h: &mut H) {
    match addr {
        Addr::Imm(_) => 0u8.hash(h),
        Addr::Reg(r, _) => {
            1u8.hash(h);
            r.hash(h);
        }
    }
}

fn hash_instr_masked<H: Hasher>(ins: &Instr<Temp>, h: &mut H) {
    match ins {
        Instr::Alu { op, dst, a, b } => {
            0u8.hash(h);
            op.hash(h);
            dst.hash(h);
            a.hash(h);
            hash_alusrc_masked(b, h);
        }
        Instr::Imm { dst, val: _ } => {
            1u8.hash(h);
            dst.hash(h);
        }
        Instr::Move { dst, src } => {
            2u8.hash(h);
            dst.hash(h);
            src.hash(h);
        }
        Instr::Clone { dst, src } => {
            3u8.hash(h);
            dst.hash(h);
            src.hash(h);
        }
        Instr::MemRead { space, addr, dst } => {
            4u8.hash(h);
            space.hash(h);
            hash_addr_masked(addr, h);
            dst.hash(h);
        }
        Instr::MemWrite { space, addr, src } => {
            5u8.hash(h);
            space.hash(h);
            hash_addr_masked(addr, h);
            src.hash(h);
        }
        Instr::Hash { dst, src } => {
            6u8.hash(h);
            dst.hash(h);
            src.hash(h);
        }
        Instr::TestAndSet { dst, src, addr } => {
            7u8.hash(h);
            dst.hash(h);
            src.hash(h);
            hash_addr_masked(addr, h);
        }
        // CSR numbers select *which* register is touched (semantics, not
        // a tunable constant): hash them fully.
        Instr::CsrRead { dst, csr } => {
            8u8.hash(h);
            dst.hash(h);
            csr.hash(h);
        }
        Instr::CsrWrite { src, csr } => {
            9u8.hash(h);
            src.hash(h);
            csr.hash(h);
        }
        Instr::RxPacket { len_dst, addr_dst } => {
            10u8.hash(h);
            len_dst.hash(h);
            addr_dst.hash(h);
        }
        Instr::TxPacket { addr, len } => {
            11u8.hash(h);
            addr.hash(h);
            len.hash(h);
        }
        Instr::CtxSwap => 12u8.hash(h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompileConfig;

    const BASE: &str = "fun main() { let (a, b) = sram(0); sram(8) <- (a + b, a); 0 }";

    fn cfg() -> CompileConfig {
        CompileConfig::default()
    }

    #[test]
    fn comment_edit_is_a_full_image_hit() {
        let c = Compiler::new(cfg());
        let cold = c.compile(BASE).unwrap();
        let commented = format!("// a comment\n{BASE} // trailing\n");
        let warm = c.compile(&commented).unwrap();
        assert!(warm.artifact.artifact_eq(&cold.artifact));
        let s = c.cache_stats();
        assert_eq!(s.output_hits, 1);
        assert_eq!(s.output_misses, 1);
        // The hit never reached the allocation cache.
        assert_eq!(s.alloc_hits + s.alloc_misses, s.output_misses);
    }

    #[test]
    fn constant_edit_skips_the_solve() {
        let c = Compiler::new(cfg());
        let cold = Compiler::new(cfg()).compile(BASE).unwrap();
        c.compile(BASE).unwrap();
        let edited = BASE.replace("sram(8)", "sram(12)");
        assert_ne!(edited, BASE);
        let warm = c.compile(&edited).unwrap();
        let s = c.cache_stats();
        assert_eq!(s.output_hits, 0);
        assert_eq!(s.alloc_hits, 1, "masked fingerprint should hit: {s:?}");
        assert_eq!(s.alloc_misses, 1);
        assert_eq!(s.alloc_hits + s.alloc_misses, s.output_misses);
        // Bit-identical to a cold compile of the edited source.
        let cold_edited = Compiler::new(cfg()).compile(&edited).unwrap();
        assert_eq!(warm.artifact.prog, cold_edited.artifact.prog);
        // And genuinely different from the base program's image.
        assert_ne!(warm.artifact.prog, cold.artifact.prog);
    }

    #[test]
    fn structural_edit_misses_everywhere() {
        let c = Compiler::new(cfg());
        c.compile(BASE).unwrap();
        let structural = "fun main() { let (a, b) = sram(0); sram(8) <- (a + b, a - b); 0 }";
        c.compile(structural).unwrap();
        let s = c.cache_stats();
        assert_eq!(s.output_hits, 0);
        assert_eq!(s.output_misses, 2);
        assert_eq!(s.alloc_hits, 0);
        assert_eq!(s.alloc_misses, 2);
    }

    #[test]
    fn failures_are_cached() {
        let c = Compiler::new(cfg());
        let e1 = c.compile("fun main() { let x = 1; y }").unwrap_err();
        let e2 = c.compile("fun main() { let x = 1; y }").unwrap_err();
        assert_eq!(e1, e2);
        let s = c.cache_stats();
        assert_eq!(s.output_hits, 1);
        assert_eq!(s.output_misses, 1);
        // A frontend failure is the one image miss that never reaches
        // the allocation cache.
        assert_eq!(s.alloc_hits + s.alloc_misses, 0);
    }

    #[test]
    fn clones_share_caches() {
        let c = Compiler::new(cfg());
        c.compile(BASE).unwrap();
        let worker = c.clone();
        worker.compile(BASE).unwrap();
        let s = c.cache_stats();
        assert_eq!(s.output_hits, 1);
        assert_eq!(s.output_misses, 1);
    }

    #[test]
    fn config_fingerprints_track_artifact_relevant_knobs_only() {
        let fps = |b: crate::CompileConfigBuilder| config_fingerprints(&b.build());
        let base = fps(CompileConfig::builder());
        // Retention and observability never change an artifact: no key
        // moves.
        let budgeted = CompileConfig::builder().cache_budget(crate::CacheBudget::entries(1));
        assert_eq!(fps(budgeted), base);
        // A search knob moves the alloc and image keys.
        let (alloc, pipeline) = fps(CompileConfig::builder().solver_gap(0.0));
        assert_ne!(alloc, base.0);
        assert_ne!(pipeline, base.1);
        // An optimizer knob moves only the image key.
        let (alloc, pipeline) = fps(CompileConfig::builder().skip_opt(true));
        assert_eq!(alloc, base.0);
        assert_ne!(pipeline, base.1);
    }

    #[test]
    fn masked_fingerprint_ignores_immediates_only() {
        let cfg = cfg();
        let compile_vprog = |src: &str| {
            let (program, info, _) = frontend_phase(src, &Obs::noop()).unwrap();
            let (cps, _, _) = cps_phase(&program, &info, src, &cfg, &Obs::noop()).unwrap();
            isel_phase(&cps, &Obs::noop()).unwrap()
        };
        let base = compile_vprog(BASE);
        let consts = compile_vprog(&BASE.replace("sram(8)", "sram(12)"));
        let structural =
            compile_vprog("fun main() { let (a, b) = sram(0); sram(8) <- (a + b, a - b); 0 }");
        assert_eq!(masked_program_fp(&base), masked_program_fp(&consts));
        assert_ne!(masked_program_fp(&base), masked_program_fp(&structural));
    }
}
