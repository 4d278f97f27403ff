//! The interpreter of the micro-ISA: N micro-engines sharing the memory
//! channels and the packet receive/transmit queues.
//!
//! The paper's throughput numbers (§11) come from the whole IXP1200 — six
//! micro-engines, four hardware contexts each, all contending for one
//! SRAM, one SDRAM, and one scratch channel. Every configuration, from
//! one context on one engine up to that chip, is a point of this one
//! timing model: `run_slice` and `resolve_requests` are the only code
//! in the repository that executes an [`Instr`], and a single engine is
//! `engines: 1`. One chip runs on the calling host thread (an
//! arbitration epoch is a few dozen instructions of work, far too little
//! to pay for a hand-off; [`crate::simulate_topology`] spends host
//! parallelism one thread per *chip* instead). Two design goals:
//!
//! 1. **Deterministic by construction.** The simulation advances in
//!    fixed *cycle slices* (arbitration epochs). Within a slice every
//!    engine executes independently — it touches only its own contexts and
//!    registers, and *emits* shared-resource requests (memory references,
//!    packet rx/tx, test-and-set) instead of applying them. At the slice
//!    barrier the arbiter resolves all requests in a canonical total
//!    order — `(issue_cycle, engine, context, sequence)` — against the
//!    [`ixp_machine::channel`] bus model and the shared [`SimMemory`], so
//!    the result does not depend on the order engines were stepped in.
//!
//! 2. **Faithful contention.** The arbiter charges the documented
//!    burst/latency costs ([`ixp_machine::timing`]); a context that issued
//!    a read sleeps until the arbitrated completion cycle, so adding
//!    engines beyond a channel's service rate stretches completion times
//!    exactly like the real bus would (the knee the throughput sweep looks
//!    for).
//!
//! The slice length defaults to half the cheapest blocking latency, so
//! the quantization of *barrier-resolved* wake-ups (a context can only
//! resume in the slice after its request completes) adds at most a few
//! cycles per reference; packet rx/tx synchronization (4 cycles on
//! hardware) is the only op quantized to a full slice. Writes are posted
//! through a store buffer (the engine does not stall for the grant), a
//! deliberate simplification. Cross-engine races on the same address
//! within one slice resolve in the canonical order above — deterministic,
//! though not cycle-exact against hardware.

use crate::engine::{advance_idle, earliest_wake, resolve_addr, RegFile, ThreadState};
use crate::machine::{RxGrant, SimMemory};
use crate::sim::{
    emit_result_obs, finish_result, EngineStats, SimError, SimMode, SimResult, StopReason,
};
use ixp_machine::channel::{Channel, ChannelFaults};
use ixp_machine::timing::{issue_cycles, read_latency, BRANCH_TAKEN_PENALTY, HASH_CYCLES};
use ixp_machine::units::hash_unit;
use ixp_machine::{AluSrc, Bank, BlockId, Instr, MemSpace, PhysReg, Program, Terminator};
use std::collections::HashMap;

/// Default [`ImageSwap::stall`]: modeled cycles every context is held
/// while the control store is rewritten. The IXP1200 cannot execute from
/// a store being written, so a reload costs roughly one write per
/// instruction word over the slow port; 4096 cycles covers a full 1K
/// store with margin and makes the swap cost visible in update-latency
/// measurements without dominating them.
pub const CONTROL_STORE_RELOAD_CYCLES: u64 = 4096;

/// A scheduled mid-run image swap: once the chip has transmitted
/// `after_packets` packets, the next arbitration barrier rewrites the
/// control store with `image` and restarts every context at its entry
/// block (registers persist — they are physical state — but control flow
/// does not survive a microcode reload). The swap happens *between*
/// packets by construction: it is applied at a barrier, after every
/// in-flight shared-resource request has been resolved.
#[derive(Debug, Clone)]
pub struct ImageSwap {
    /// Transmitted-packet threshold that triggers the swap.
    pub after_packets: u64,
    /// Cycles every context is stalled while the store is rewritten
    /// (default [`CONTROL_STORE_RELOAD_CYCLES`]).
    pub stall: u64,
    /// The compiled image to swap in.
    pub image: Program<PhysReg>,
    /// Expected [`image_checksum`] of the delivered image. When set, the
    /// barrier validates the image before rewriting the control store; a
    /// mismatch (the image was corrupted in transit) rejects the swap and
    /// the running image keeps forwarding
    /// ([`SwapOutcome::RejectedChecksum`]).
    pub expected_checksum: Option<u64>,
    /// Watchdog window in cycles: if the new image transmits nothing
    /// within `stall + watchdog` cycles of the swap barrier — or halts
    /// every context without transmitting — the previous image is
    /// restored ([`SwapOutcome::RevertedWatchdog`]). A watchdog-armed
    /// swap must therefore have traffic left to forward, or the revert
    /// is a (deterministic) false positive.
    pub watchdog: Option<u64>,
}

impl ImageSwap {
    /// A swap with the default reload stall and no fault checks.
    pub fn new(after_packets: u64, image: Program<PhysReg>) -> Self {
        ImageSwap {
            after_packets,
            stall: CONTROL_STORE_RELOAD_CYCLES,
            image,
            expected_checksum: None,
            watchdog: None,
        }
    }

    /// Arm barrier-time checksum validation against `expected`.
    #[must_use]
    pub fn with_checksum(mut self, expected: u64) -> Self {
        self.expected_checksum = Some(expected);
        self
    }

    /// Arm the no-transmit watchdog with the given window (cycles after
    /// the reload stall ends).
    #[must_use]
    pub fn with_watchdog(mut self, window: u64) -> Self {
        self.watchdog = Some(window);
        self
    }
}

/// Content checksum of a compiled image — FNV-1a over the program's
/// canonical rendering. Deterministic for identical programs, and any
/// single-instruction tamper changes it; the stand-in for the microcode
/// manifest hash a real update channel would carry.
pub fn image_checksum(prog: &Program<PhysReg>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{prog:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How one [`ImageSwap`] resolved, decided at an arbitration barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcome {
    /// The run ended before the packet threshold was reached.
    NotReached,
    /// The new image took effect and was never reverted.
    Applied,
    /// Checksum validation failed at the barrier: the delivered image
    /// did not match its manifest, the swap was discarded, and the
    /// running image kept forwarding.
    RejectedChecksum {
        /// Barrier cycle at which the corrupt image was rejected.
        at: u64,
    },
    /// The new image was applied but transmitted nothing within its
    /// watchdog window (or halted the whole chip); the previous image
    /// was restored.
    RevertedWatchdog {
        /// Barrier cycle at which the revert took effect.
        at: u64,
    },
}

/// What one [`ImageSwap`] actually did, in modeled cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapReport {
    /// The triggering threshold, echoed.
    pub after_packets: u64,
    /// Barrier cycle at which the new image took effect, or `None` if
    /// the run ended before the threshold was reached.
    pub swap_cycle: Option<u64>,
    /// Issue cycle of the first packet transmitted *by the new image*
    /// (the first `tx_log` entry appended after the swap barrier), or
    /// `None` if none was. For a watchdog-reverted swap this is instead
    /// the first packet out after the rollback — the recovery anchor.
    pub first_tx_cycle: Option<u64>,
    /// How the swap resolved (applied, rejected, reverted, not reached).
    pub outcome: SwapOutcome,
}

impl SwapReport {
    /// Modeled swap-to-first-packet latency: how long the data plane ran
    /// degraded (stalled, then refilling) before the new rules forwarded
    /// their first packet.
    pub fn update_cycles(&self) -> Option<u64> {
        Some(self.first_tx_cycle? - self.swap_cycle?)
    }
}

/// Chip-level simulation parameters.
#[derive(Debug, Clone)]
pub struct ChipConfig {
    /// Micro-engines on the chip (IXP1200: 6).
    pub engines: usize,
    /// Hardware contexts per engine (IXP1200: 4).
    pub contexts: usize,
    /// Cycle budget. A run that exhausts it stops with
    /// [`StopReason::CycleLimit`] and partial statistics.
    pub max_cycles: u64,
    /// Arbitration epoch length in modeled cycles. Smaller slices resolve
    /// shared-resource requests at a finer grain (less wake-up
    /// quantization) at more host barrier cost. The default (8) is safely
    /// below every blocking memory latency.
    pub slice: u64,
    /// Inert: one chip runs on the calling thread. Kept only because the
    /// frozen `benchmark/src/pins.rs` sets it; goes with the next
    /// benchmark PR.
    #[doc(hidden)]
    pub host_threads: usize,
    /// Scheduler mode. [`SimMode::FastPath`] (the default) skips over
    /// arbitration epochs in which no context can execute — jumping
    /// simulated time to the earliest wake-up, rounded down to an epoch
    /// boundary — and is bit-identical to [`SimMode::CycleSlice`], which
    /// grinds every epoch and serves as the differential oracle.
    pub mode: SimMode,
    /// Deterministic channel fault injection (stalls and dropped/retried
    /// references), applied to the shared chip-level channels. Default:
    /// no faults.
    pub faults: ChannelFaults,
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            engines: 6,
            contexts: 4,
            max_cycles: 500_000_000,
            slice: 8,
            host_threads: 0,
            mode: SimMode::default(),
            faults: ChannelFaults::default(),
        }
    }
}

/// A shared-resource request emitted by an engine during a slice and
/// resolved by the arbiter at the barrier.
#[derive(Debug)]
struct Request {
    issue: u64,
    engine: usize,
    ctx: usize,
    seq: u64,
    kind: ReqKind,
}

#[derive(Debug)]
enum ReqKind {
    Read {
        space: MemSpace,
        base: u32,
        dst: Vec<PhysReg>,
    },
    Write {
        space: MemSpace,
        base: u32,
        vals: Vec<u32>,
    },
    TestAndSet {
        addr: u32,
        val: u32,
        dst: PhysReg,
    },
    CsrRead {
        csr: u32,
        dst: PhysReg,
    },
    CsrWrite {
        csr: u32,
        val: u32,
    },
    Rx {
        len_dst: PhysReg,
        addr_dst: PhysReg,
    },
    Tx {
        addr: u32,
        len: u32,
    },
}

struct Ctx {
    regs: RegFile,
    block: BlockId,
    pc: usize,
    state: ThreadState,
}

/// One micro-engine's private state. During a slice only `run_slice`
/// touches it; between slices only the arbiter does.
struct Engine {
    id: usize,
    cycle: u64,
    ctxs: Vec<Ctx>,
    current: usize,
    seq: u64,
    requests: Vec<Request>,
    stats: EngineStats,
    error: Option<SimError>,
}

impl Engine {
    fn new(id: usize, prog: &Program<PhysReg>, contexts: usize) -> Self {
        Engine {
            id,
            cycle: 0,
            ctxs: (0..contexts.max(1))
                .map(|_| Ctx {
                    regs: RegFile::new(),
                    block: prog.entry,
                    pc: 0,
                    state: ThreadState::Ready,
                })
                .collect(),
            current: 0,
            seq: 0,
            requests: Vec::new(),
            stats: EngineStats::new(id),
            error: None,
        }
    }

    fn all_halted(&self) -> bool {
        self.ctxs.iter().all(|c| c.state == ThreadState::Halted)
    }

    fn push(&mut self, issue: u64, ctx: usize, kind: ReqKind) {
        let seq = self.seq;
        self.seq += 1;
        self.requests.push(Request {
            issue,
            engine: self.id,
            ctx,
            seq,
            kind,
        });
    }
}

/// Execute one engine up to `slice_end`. Pure engine-local: reads the
/// program, mutates only this engine, and queues shared-resource requests
/// for the barrier arbiter.
fn run_slice(e: &mut Engine, prog: &Program<PhysReg>, slice_end: u64) {
    if e.error.is_some() || e.all_halted() {
        return;
    }
    loop {
        if e.cycle >= slice_end {
            return;
        }
        // Pick the next runnable context (round robin from `current`).
        let mut picked = None;
        for off in 0..e.ctxs.len() {
            let i = (e.current + off) % e.ctxs.len();
            match e.ctxs[i].state {
                ThreadState::Ready => {
                    picked = Some(i);
                    break;
                }
                ThreadState::Blocked(until) if until <= e.cycle => {
                    e.ctxs[i].state = ThreadState::Ready;
                    picked = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let Some(ti) = picked else {
            if e.all_halted() {
                if e.stats.halt_cycle == 0 {
                    e.stats.halt_cycle = e.cycle;
                }
                return;
            }
            // Runnable later this slice? Advance to the earliest wake-up;
            // otherwise idle out the slice (wake-ups beyond it, or
            // requests pending at the barrier).
            match earliest_wake(e.ctxs.iter().map(|c| &c.state)) {
                Some(u) if u < slice_end => {
                    let target = u.max(e.cycle + 1);
                    advance_idle(&mut e.cycle, &mut e.stats.idle_cycles, target);
                    continue;
                }
                _ => {
                    advance_idle(&mut e.cycle, &mut e.stats.idle_cycles, slice_end);
                    return;
                }
            }
        };
        e.current = ti;
        let block = &prog.blocks[e.ctxs[ti].block.index()];

        if e.ctxs[ti].pc < block.instrs.len() {
            let ins = &block.instrs[e.ctxs[ti].pc];
            e.stats.instructions += 1;
            e.cycle += issue_cycles(ins);
            let cycle = e.cycle;
            let global_ctx = (e.id * e.ctxs.len() + ti) as u32;
            let t = &mut e.ctxs[ti];
            match ins {
                Instr::Alu { op, dst, a, b } => {
                    let av = t.regs.read(*a);
                    let bv = match b {
                        AluSrc::Reg(r) => t.regs.read(*r),
                        AluSrc::Imm(v) => *v,
                    };
                    t.regs.write(*dst, op.eval(av, bv));
                }
                Instr::Imm { dst, val } => t.regs.write(*dst, *val),
                Instr::Move { dst, src } => {
                    let v = t.regs.read(*src);
                    t.regs.write(*dst, v);
                }
                Instr::Clone { .. } => {
                    // Validated programs never contain clones; treat as nop.
                }
                Instr::MemRead { space, addr, dst } => {
                    let base = resolve_addr(&t.regs, addr);
                    t.state = ThreadState::Pending;
                    t.pc += 1;
                    e.stats.swap_outs += 1;
                    let (space, dst) = (*space, dst.clone());
                    e.push(cycle, ti, ReqKind::Read { space, base, dst });
                    continue;
                }
                Instr::MemWrite { space, addr, src } => {
                    let base = resolve_addr(&t.regs, addr);
                    let vals: Vec<u32> = src.iter().map(|s| t.regs.read(*s)).collect();
                    // Posted through the store buffer: the context keeps
                    // running; the bus occupancy is charged at the barrier.
                    let space = *space;
                    t.pc += 1;
                    e.push(cycle, ti, ReqKind::Write { space, base, vals });
                    continue;
                }
                Instr::Hash { dst, src } => {
                    let v = hash_unit(t.regs.read(PhysReg::new(Bank::S, src.num)));
                    t.regs.write(*dst, v);
                    t.state = ThreadState::Blocked(cycle + HASH_CYCLES);
                    e.stats.swap_outs += 1;
                    t.pc += 1;
                    continue;
                }
                Instr::TestAndSet { dst, src, addr } => {
                    let a = resolve_addr(&t.regs, addr);
                    let v = t.regs.read(*src);
                    t.state = ThreadState::Pending;
                    t.pc += 1;
                    e.stats.swap_outs += 1;
                    let dst = *dst;
                    e.push(
                        cycle,
                        ti,
                        ReqKind::TestAndSet {
                            addr: a,
                            val: v,
                            dst,
                        },
                    );
                    continue;
                }
                Instr::CsrRead { dst, csr } => {
                    if *csr == ixp_machine::CSR_CTX {
                        // The context-number CSR is engine-local state:
                        // it resolves in the issue cycle, no barrier trip.
                        t.regs.write(*dst, global_ctx);
                    } else {
                        // CSRs are chip-shared: reads resolve at the barrier.
                        t.state = ThreadState::Pending;
                        t.pc += 1;
                        e.stats.swap_outs += 1;
                        let (csr, dst) = (*csr, *dst);
                        e.push(cycle, ti, ReqKind::CsrRead { csr, dst });
                        continue;
                    }
                }
                Instr::CsrWrite { src, csr } => {
                    let v = t.regs.read(*src);
                    let csr = *csr;
                    t.pc += 1;
                    e.push(cycle, ti, ReqKind::CsrWrite { csr, val: v });
                    continue;
                }
                Instr::RxPacket { len_dst, addr_dst } => {
                    // The receive queue is chip-shared: the scheduler
                    // grants packets in canonical order at the barrier.
                    t.state = ThreadState::Pending;
                    t.pc += 1;
                    e.stats.swap_outs += 1;
                    let (len_dst, addr_dst) = (*len_dst, *addr_dst);
                    e.push(cycle, ti, ReqKind::Rx { len_dst, addr_dst });
                    continue;
                }
                Instr::TxPacket { addr, len } => {
                    let a = t.regs.read(*addr);
                    let l = t.regs.read(*len);
                    t.state = ThreadState::Blocked(cycle + 4);
                    t.pc += 1;
                    e.stats.swap_outs += 1;
                    e.stats.packets += 1;
                    e.stats.bytes += l as u64;
                    e.push(cycle, ti, ReqKind::Tx { addr: a, len: l });
                    continue;
                }
                Instr::CtxSwap => {
                    t.pc += 1;
                    t.state = ThreadState::Blocked(cycle + 1);
                    e.stats.swap_outs += 1;
                    continue;
                }
            }
            e.ctxs[ti].pc += 1;
        } else {
            // Terminator.
            e.stats.instructions += 1;
            e.cycle += 1;
            let t = &mut e.ctxs[ti];
            match &block.term {
                Terminator::Halt => {
                    t.state = ThreadState::Halted;
                }
                Terminator::Jump(target) => {
                    if target.index() >= prog.blocks.len() {
                        e.error = Some(SimError::BadTarget(*target));
                        return;
                    }
                    t.block = *target;
                    t.pc = 0;
                    e.cycle += BRANCH_TAKEN_PENALTY;
                }
                Terminator::Branch {
                    cond,
                    a,
                    b,
                    if_true,
                    if_false,
                } => {
                    let av = t.regs.read(*a);
                    let bv = match b {
                        AluSrc::Reg(r) => t.regs.read(*r),
                        AluSrc::Imm(v) => *v,
                    };
                    let taken = cond.eval(av, bv);
                    let target = if taken { *if_true } else { *if_false };
                    if target.index() >= prog.blocks.len() {
                        e.error = Some(SimError::BadTarget(target));
                        return;
                    }
                    if taken {
                        e.cycle += BRANCH_TAKEN_PENALTY;
                    }
                    t.block = target;
                    t.pc = 0;
                }
            }
        }
    }
}

/// The barrier phase: resolve every request emitted this slice in the
/// canonical order against the shared memory, channels, and packet
/// queues.
fn resolve_requests(
    engines: &mut [Engine],
    mem: &mut SimMemory,
    channels: &mut [Channel; 3],
    mem_refs: &mut HashMap<MemSpace, (u64, u64)>,
) {
    let mut all: Vec<Request> = Vec::new();
    for e in engines.iter_mut() {
        all.append(&mut e.requests);
    }
    all.sort_by_key(|r| (r.issue, r.engine, r.ctx, r.seq));
    for ch in channels.iter_mut() {
        let depth = all
            .iter()
            .filter(|r| match &r.kind {
                ReqKind::Read { space, .. } | ReqKind::Write { space, .. } => {
                    Channel::index(*space) == Channel::index(ch.stats.space)
                }
                _ => false,
            })
            .count();
        ch.note_queue_depth(depth);
    }
    for req in all {
        let eng = &mut engines[req.engine];
        match req.kind {
            ReqKind::Read { space, base, dst } => {
                let (_, done) = channels[Channel::index(space)].service_read(req.issue, dst.len());
                let ctx = &mut eng.ctxs[req.ctx];
                for (i, d) in dst.iter().enumerate() {
                    let v = mem.read(space, base + i as u32);
                    ctx.regs.write(*d, v);
                }
                ctx.state = ThreadState::Blocked(done);
                mem_refs.entry(space).or_insert((0, 0)).0 += 1;
            }
            ReqKind::Write { space, base, vals } => {
                channels[Channel::index(space)].service_write(req.issue, vals.len());
                for (i, v) in vals.iter().enumerate() {
                    mem.write(space, base + i as u32, *v);
                }
                mem_refs.entry(space).or_insert((0, 0)).1 += 1;
            }
            ReqKind::TestAndSet { addr, val, dst } => {
                let old = mem.read(MemSpace::Sram, addr);
                mem.write(MemSpace::Sram, addr, old | val);
                let ctx = &mut eng.ctxs[req.ctx];
                ctx.regs.write(dst, old);
                ctx.state = ThreadState::Blocked(req.issue + read_latency(MemSpace::Sram));
                let e = mem_refs.entry(MemSpace::Sram).or_insert((0, 0));
                e.0 += 1;
                e.1 += 1;
            }
            ReqKind::CsrRead { csr, dst } => {
                let v = *mem.csr.get(&csr).unwrap_or(&0);
                let ctx = &mut eng.ctxs[req.ctx];
                ctx.regs.write(dst, v);
                ctx.state = ThreadState::Blocked(req.issue);
            }
            ReqKind::CsrWrite { csr, val } => {
                mem.csr.insert(csr, val);
            }
            ReqKind::Rx { len_dst, addr_dst } => {
                let ctx = &mut eng.ctxs[req.ctx];
                match mem.rx_grant(req.issue) {
                    RxGrant::Packet { len, addr } => {
                        ctx.regs.write(len_dst, len);
                        ctx.regs.write(addr_dst, addr);
                        ctx.state = ThreadState::Blocked(req.issue + 4);
                    }
                    RxGrant::WaitUntil(arrival) => {
                        // Timed traffic and nothing has arrived yet: the
                        // context re-executes the rx instruction once the
                        // next scheduled packet lands (the retry is billed
                        // as another issue — polling the ring isn't free).
                        ctx.pc -= 1;
                        ctx.state = ThreadState::Blocked(arrival);
                    }
                    RxGrant::Empty => {
                        ctx.state = ThreadState::Halted;
                    }
                }
            }
            ReqKind::Tx { addr, len } => {
                mem.tx_log.push((addr, len, req.issue));
            }
        }
    }
}

/// Decide where the next arbitration epoch starts, given the barrier at
/// `slice_end` just resolved. Returns `(next_t, skipped_cycles)`.
///
/// [`SimMode::CycleSlice`] always answers `slice_end`. [`SimMode::FastPath`]
/// computes the earliest cycle `A` at which *any* context can execute
/// again — `max(engine.cycle, wake)` for blocked contexts, `engine.cycle`
/// for ready ones — and jumps to the epoch boundary at or below `A`. Every
/// skipped epoch is provably dead: any activity before `A` would
/// contradict `A`'s minimality, engines idling out a dead epoch charge
/// exactly `slice` idle cycles (credited here in one step through
/// [`advance_idle`]), a dead barrier resolves zero requests, and
/// `note_queue_depth(0)` is a no-op. Channels hold no hidden events to
/// skip over: completions were folded into `Blocked(done)` wake-ups when
/// the request was serviced, and a busy bus only delays *future* requests
/// via the `free_at.max(issue)` fold —
/// [`ixp_machine::channel::Channel::next_event`] exposes that bus-free
/// horizon, and the debug assertion below pins down that skipping past it
/// leaves the channel's event view unchanged.
fn next_epoch(
    engines: &mut [Engine],
    channels: &[Channel; 3],
    mode: SimMode,
    slice_end: u64,
    slice: u64,
    max_cycles: u64,
    horizon: Option<u64>,
) -> (u64, u64) {
    if mode == SimMode::CycleSlice {
        return (slice_end, 0);
    }
    let mut earliest: Option<u64> = None;
    for e in engines.iter() {
        if e.all_halted() {
            continue;
        }
        debug_assert!(
            e.requests.is_empty(),
            "barrier left unresolved requests behind"
        );
        for c in &e.ctxs {
            let w = match c.state {
                ThreadState::Ready => e.cycle,
                ThreadState::Blocked(u) => u.max(e.cycle),
                // A context still pending at the arbiter means the epoch
                // is live; never skip over it. (resolve_requests clears
                // every Pending, so this is defensive.)
                ThreadState::Pending => return (slice_end, 0),
                ThreadState::Halted => continue,
            };
            earliest = Some(earliest.map_or(w, |a| a.min(w)));
        }
    }
    let Some(a) = earliest else {
        return (slice_end, 0);
    };
    let mut target = (slice_end + (a.max(slice_end) - slice_end) / slice * slice).min(max_cycles);
    if let Some(d) = horizon {
        // An armed watchdog's revert decision happens at a barrier: clamp
        // the jump so the next barrier lands on the first epoch boundary
        // at or past the deadline, exactly where the cycle-slice oracle
        // would take it.
        let k = d.saturating_sub(slice_end).div_ceil(slice).max(1);
        target = target.min(slice_end + (k - 1) * slice);
    }
    if target <= slice_end {
        return (slice_end, 0);
    }
    if cfg!(debug_assertions) {
        for ch in channels.iter() {
            debug_assert_eq!(
                ch.next_event(target),
                ch.next_event(slice_end).filter(|&h| h > target),
                "skipping must not change a channel's bus-free horizon"
            );
        }
    }
    for e in engines.iter_mut() {
        if e.all_halted() || e.cycle >= target {
            continue;
        }
        advance_idle(&mut e.cycle, &mut e.stats.idle_cycles, target);
    }
    (target, target - slice_end)
}

/// Run `prog` on every engine of the simulated chip.
///
/// All engines execute the same program (the paper's deployment model:
/// one pipeline stage per chip), pulling packets from the shared receive
/// queue.
///
/// # Errors
///
/// Returns [`SimError`] on architectural violations (which
/// [`ixp_machine::validate`] should have ruled out).
pub fn simulate_chip(
    prog: &Program<PhysReg>,
    mem: &mut SimMemory,
    cfg: &ChipConfig,
) -> Result<SimResult, SimError> {
    simulate_chip_with(prog, mem, cfg, &nova_obs::Obs::noop())
}

/// Modeled cycles between two `sim.channel.<space>.occupancy` samples
/// when an observer is installed. Coarse enough that sampling stays off
/// the per-slice fast path's critical cost (one comparison per epoch),
/// fine enough to show saturation ramps over a 64-packet run.
const OCC_SAMPLE_CYCLES: u64 = 16_384;

/// Windowed channel-occupancy sampling, driven by the arbitration phase
/// of the chip loop.
struct OccSampler {
    next: u64,
    last_cycle: u64,
    last_busy: [u64; 3],
}

impl OccSampler {
    fn new() -> Self {
        OccSampler {
            next: OCC_SAMPLE_CYCLES,
            last_cycle: 0,
            last_busy: [0; 3],
        }
    }

    fn maybe_sample(&mut self, obs: &nova_obs::Obs, t: u64, channels: &[Channel; 3]) {
        if t < self.next {
            return;
        }
        let window = t - self.last_cycle;
        if window > 0 {
            for (i, ch) in channels.iter().enumerate() {
                let busy = ch.stats.busy_cycles;
                let frac = (busy - self.last_busy[i]) as f64 / window as f64;
                let space = format!("{:?}", ch.stats.space).to_lowercase();
                obs.sample(&format!("sim.channel.{space}.occupancy"), frac);
                self.last_busy[i] = busy;
            }
        }
        self.last_cycle = t;
        self.next = t + OCC_SAMPLE_CYCLES;
    }
}

/// [`simulate_chip`] with structured telemetry: the run executes under a
/// `phase.sim` span, the arbiter samples windowed per-channel occupancy
/// every [`OCC_SAMPLE_CYCLES`] modeled cycles, and the finished run
/// publishes the `sim.channel.*` / `sim.engine.*` summary. Sampling
/// reads the model and never writes it, so results are unaffected.
///
/// # Errors
///
/// Returns [`SimError`] on architectural violations, as [`simulate_chip`].
pub fn simulate_chip_with(
    prog: &Program<PhysReg>,
    mem: &mut SimMemory,
    cfg: &ChipConfig,
    obs: &nova_obs::Obs,
) -> Result<SimResult, SimError> {
    simulate_chip_reload_with(prog, &[], mem, cfg, obs).map(|(res, _)| res)
}

/// [`simulate_chip`] with scheduled mid-run image swaps — the hot-reload
/// hook. The chip boots running `prog`; each [`ImageSwap`] replaces the
/// control store at the first arbitration barrier after its
/// transmitted-packet threshold, and the returned [`SwapReport`]s say
/// when each swap landed and when the first packet went out through the
/// new rules. With an empty `swaps` slice this is exactly
/// [`simulate_chip`].
///
/// # Errors
///
/// Returns [`SimError`] on architectural violations in any image.
pub fn simulate_chip_reload(
    prog: &Program<PhysReg>,
    swaps: &[ImageSwap],
    mem: &mut SimMemory,
    cfg: &ChipConfig,
) -> Result<(SimResult, Vec<SwapReport>), SimError> {
    simulate_chip_reload_with(prog, swaps, mem, cfg, &nova_obs::Obs::noop())
}

/// [`simulate_chip_reload`] with structured telemetry (see
/// [`simulate_chip_with`]); each applied swap lands a
/// `sim.reload.swaps` counter.
fn simulate_chip_reload_with(
    prog: &Program<PhysReg>,
    swaps: &[ImageSwap],
    mem: &mut SimMemory,
    cfg: &ChipConfig,
    obs: &nova_obs::Obs,
) -> Result<(SimResult, Vec<SwapReport>), SimError> {
    let span = obs.span("phase.sim");
    let (res, reports) = simulate_chip_inner(prog, swaps, mem, cfg, obs)?;
    span.end();
    emit_result_obs(obs, &res);
    Ok((res, reports))
}

/// Rewrite the control store: every context of every engine restarts at
/// `image`'s entry block after `stall` reload cycles. Registers persist
/// (physical state); in-flight requests were already resolved by the
/// barrier that triggered the swap.
fn apply_swap(engines: &mut [Engine], image: &Program<PhysReg>, at: u64, stall: u64) {
    for e in engines {
        e.current = 0;
        // A restarted engine is no longer halted: forget any halt cycle
        // recorded before the swap so post-reload execution is counted.
        e.stats.halt_cycle = 0;
        for c in e.ctxs.iter_mut() {
            c.block = image.entry;
            c.pc = 0;
            c.state = ThreadState::Blocked(at + stall);
        }
    }
}

/// What one fired swap did, recorded at the barrier that decided it.
/// `events[i]` always describes `swaps[i]`: swaps are consumed in order
/// and every consumed swap pushes exactly one event.
#[derive(Debug, Clone, Copy)]
enum SwapEvent {
    Applied {
        swap_cycle: u64,
        tx_at: usize,
    },
    Rejected {
        at: u64,
    },
    Reverted {
        swap_cycle: u64,
        at: u64,
        tx_at: usize,
    },
}

/// An armed no-transmit watchdog guarding the most recently applied swap.
#[derive(Debug, Clone, Copy)]
struct Watchdog {
    /// Index of the guarded swap (into `SwapDriver::events`).
    swap: usize,
    /// Barrier cycle at or after which the revert fires.
    deadline: u64,
    /// `tx_log` length at the swap: any growth past it means the new
    /// image forwarded a packet and the swap is committed.
    tx_at: usize,
    /// Image index to restore on revert.
    restore: usize,
    /// Reload stall to charge for the restore rewrite.
    stall: u64,
}

/// Barrier-side swap sequencing: threshold checks, checksum validation,
/// watchdog commit/revert.
struct SwapDriver<'a> {
    swaps: &'a [ImageSwap],
    next: usize,
    events: Vec<SwapEvent>,
    armed: Option<Watchdog>,
}

impl<'a> SwapDriver<'a> {
    fn new(swaps: &'a [ImageSwap]) -> Self {
        SwapDriver {
            swaps,
            next: 0,
            events: Vec::new(),
            armed: None,
        }
    }

    /// Earliest cycle at which the armed watchdog can fire. The fast
    /// path must not jump a barrier past it: the revert decision happens
    /// *at* a barrier, and skipping over the deadline would revert later
    /// than the cycle-slice oracle does.
    fn horizon(&self) -> Option<u64> {
        self.armed.map(|w| w.deadline)
    }

    fn at_barrier(
        &mut self,
        engines: &mut [Engine],
        images: &[&Program<PhysReg>],
        cur: &mut usize,
        mem: &SimMemory,
        slice_end: u64,
    ) {
        if let Some(w) = self.armed {
            if mem.tx_log.len() > w.tx_at {
                // The new image forwarded a packet: committed.
                self.armed = None;
            } else if slice_end >= w.deadline || all_halted(engines) {
                // Wedged (nothing transmitted inside the window) or
                // bricked (every context halted without transmitting):
                // restore the previous image, paying the control-store
                // rewrite again.
                apply_swap(engines, images[w.restore], slice_end, w.stall);
                *cur = w.restore;
                let SwapEvent::Applied { swap_cycle, .. } = self.events[w.swap] else {
                    unreachable!("watchdog armed on an unapplied swap");
                };
                self.events[w.swap] = SwapEvent::Reverted {
                    swap_cycle,
                    at: slice_end,
                    tx_at: mem.tx_log.len(),
                };
                self.armed = None;
            }
        }
        while self.next < self.swaps.len()
            && mem.tx_log.len() as u64 >= self.swaps[self.next].after_packets
        {
            let i = self.next;
            self.next += 1;
            let s = &self.swaps[i];
            if let Some(want) = s.expected_checksum {
                if want != image_checksum(&s.image) {
                    self.events.push(SwapEvent::Rejected { at: slice_end });
                    continue;
                }
            }
            let restore = *cur;
            apply_swap(engines, images[i + 1], slice_end, s.stall);
            *cur = i + 1;
            self.events.push(SwapEvent::Applied {
                swap_cycle: slice_end,
                tx_at: mem.tx_log.len(),
            });
            // A newly applied swap supersedes any earlier watchdog: the
            // image it guarded is gone either way.
            self.armed = s.watchdog.map(|window| Watchdog {
                swap: i,
                deadline: slice_end + s.stall + window,
                tx_at: mem.tx_log.len(),
                restore,
                stall: s.stall,
            });
        }
    }

    fn count(&self, f: impl Fn(&SwapEvent) -> bool) -> u64 {
        self.events.iter().filter(|e| f(e)).count() as u64
    }
}

fn simulate_chip_inner(
    prog: &Program<PhysReg>,
    swaps: &[ImageSwap],
    mem: &mut SimMemory,
    cfg: &ChipConfig,
    obs: &nova_obs::Obs,
) -> Result<(SimResult, Vec<SwapReport>), SimError> {
    let n_engines = cfg.engines.max(1);
    let slice = cfg.slice.max(1);
    let mut engines: Vec<Engine> = (0..n_engines)
        .map(|i| Engine::new(i, prog, cfg.contexts))
        .collect();
    let mut channels = Channel::per_space_with(cfg.faults);
    let mut mem_refs: HashMap<MemSpace, (u64, u64)> = HashMap::new();
    let mut sampler = obs.enabled().then(OccSampler::new);
    // Fast-path telemetry: how often and how far the scheduler jumped
    // over dead epochs.
    let mut fp_skips: u64 = 0;
    let mut fp_skipped_cycles: u64 = 0;
    // Image rotation: `images[0]` is the boot image, `images[i + 1]` is
    // swap `i`'s; `cur` only moves at a barrier. The swap driver records
    // per-swap events whose tx-log indices pin "first packet through the
    // new rules" (or after a rollback) exactly.
    let images: Vec<&Program<PhysReg>> = std::iter::once(prog)
        .chain(swaps.iter().map(|s| &s.image))
        .collect();
    let mut cur = 0usize;
    let mut swap_driver = SwapDriver::new(swaps);

    let mut t: u64 = 0;
    let (stop, final_t) = loop {
        if t >= cfg.max_cycles {
            break (StopReason::CycleLimit, t);
        }
        let slice_end = (t + slice).min(cfg.max_cycles);
        for e in engines.iter_mut() {
            run_slice(e, images[cur], slice_end);
        }
        if let Some(err) = engines.iter().find_map(|e| e.error.clone()) {
            return Err(err);
        }
        resolve_requests(&mut engines, mem, &mut channels, &mut mem_refs);
        if let Some(s) = sampler.as_mut() {
            s.maybe_sample(obs, slice_end, &channels);
        }
        swap_driver.at_barrier(&mut engines, &images, &mut cur, mem, slice_end);
        if all_halted(&engines) {
            break (StopReason::AllHalted, slice_end);
        }
        let (next_t, skipped) = next_epoch(
            &mut engines,
            &channels,
            cfg.mode,
            slice_end,
            slice,
            cfg.max_cycles,
            swap_driver.horizon(),
        );
        if skipped > 0 {
            fp_skips += 1;
            fp_skipped_cycles += skipped;
        }
        t = next_t;
    };

    if obs.enabled() {
        // How much host work the event-driven mode saved. These are the
        // only counters allowed to differ between modes (the differential
        // tests compare SimResult, not telemetry).
        obs.counter("sim.fastpath.skips", fp_skips);
        obs.counter("sim.fastpath.skipped_cycles", fp_skipped_cycles);
        let applied = swap_driver
            .count(|e| matches!(e, SwapEvent::Applied { .. } | SwapEvent::Reverted { .. }));
        let rejected = swap_driver.count(|e| matches!(e, SwapEvent::Rejected { .. }));
        let reverted = swap_driver.count(|e| matches!(e, SwapEvent::Reverted { .. }));
        if applied > 0 {
            obs.counter("sim.reload.swaps", applied);
        }
        if rejected > 0 {
            obs.counter("sim.reload.rejected_swaps", rejected);
        }
        if reverted > 0 {
            obs.counter("sim.reload.reverted_swaps", reverted);
        }
    }
    for e in engines.iter_mut() {
        // Engines whose last context halted at the barrier (empty receive
        // queue) never ran again to observe it; close their books at the
        // local cycle they stopped executing.
        if e.all_halted() && e.stats.halt_cycle == 0 {
            e.stats.halt_cycle = e.cycle;
        }
    }
    let cycles = match stop {
        StopReason::AllHalted => engines
            .iter()
            .map(|e| e.stats.halt_cycle)
            .max()
            .unwrap_or(final_t),
        StopReason::CycleLimit => final_t,
    };
    let estats: Vec<EngineStats> = engines.into_iter().map(|e| e.stats).collect();
    let reports: Vec<SwapReport> = swaps
        .iter()
        .enumerate()
        .map(|(i, s)| match swap_driver.events.get(i) {
            None => SwapReport {
                after_packets: s.after_packets,
                swap_cycle: None,
                first_tx_cycle: None,
                outcome: SwapOutcome::NotReached,
            },
            Some(&SwapEvent::Rejected { at }) => SwapReport {
                after_packets: s.after_packets,
                swap_cycle: None,
                first_tx_cycle: None,
                outcome: SwapOutcome::RejectedChecksum { at },
            },
            Some(&SwapEvent::Applied { swap_cycle, tx_at }) => SwapReport {
                after_packets: s.after_packets,
                swap_cycle: Some(swap_cycle),
                first_tx_cycle: mem.tx_log.get(tx_at).map(|&(_, _, c)| c),
                outcome: SwapOutcome::Applied,
            },
            Some(&SwapEvent::Reverted {
                swap_cycle,
                at,
                tx_at,
            }) => SwapReport {
                after_packets: s.after_packets,
                swap_cycle: Some(swap_cycle),
                first_tx_cycle: mem.tx_log.get(tx_at).map(|&(_, _, c)| c),
                outcome: SwapOutcome::RevertedWatchdog { at },
            },
        })
        .collect();
    Ok((
        finish_result(cycles, mem_refs, stop, channels, estats),
        reports,
    ))
}

fn all_halted(engines: &[Engine]) -> bool {
    engines.iter().all(Engine::all_halted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_machine::{Addr, AluOp, Block, Cond};

    fn r(bank: Bank, n: u8) -> PhysReg {
        PhysReg::new(bank, n)
    }

    /// The single micro-engine: one engine, `contexts` hardware contexts.
    fn one_engine(contexts: usize) -> ChipConfig {
        ChipConfig {
            engines: 1,
            contexts,
            max_cycles: 1 << 20,
            ..ChipConfig::default()
        }
    }

    #[test]
    fn straight_line_arithmetic() {
        // immed a0, 6; immed b0, 7; add a1, a0, b0; mov s0, a1; write
        let prog = Program {
            blocks: vec![Block {
                instrs: vec![
                    Instr::Imm {
                        dst: r(Bank::A, 0),
                        val: 6,
                    },
                    Instr::Imm {
                        dst: r(Bank::B, 0),
                        val: 7,
                    },
                    Instr::Alu {
                        op: AluOp::Add,
                        dst: r(Bank::A, 1),
                        a: r(Bank::A, 0),
                        b: AluSrc::Reg(r(Bank::B, 0)),
                    },
                    Instr::Move {
                        dst: r(Bank::S, 0),
                        src: r(Bank::A, 1),
                    },
                    Instr::MemWrite {
                        space: MemSpace::Sram,
                        addr: Addr::Imm(10),
                        src: vec![r(Bank::S, 0)],
                    },
                ],
                term: Terminator::Halt,
            }],
            entry: BlockId(0),
        };
        let mut mem = SimMemory::with_sizes(64, 64, 64);
        let res = simulate_chip(&prog, &mut mem, &one_engine(1)).unwrap();
        assert_eq!(mem.sram[10], 13);
        assert_eq!(res.stop, StopReason::AllHalted);
        assert!(res.cycles >= 6);
        assert_eq!(res.engines.len(), 1);
        assert_eq!(res.engines[0].instructions, res.instructions);
        let sram = &res.channels[Channel::index(MemSpace::Sram)];
        assert_eq!(sram.writes, 1);
    }

    #[test]
    fn loops_and_branches() {
        // a0 = 0; L1: a0 += 1; if a0 < 5 goto L1; store a0.
        let prog = Program {
            blocks: vec![
                Block {
                    instrs: vec![Instr::Imm {
                        dst: r(Bank::A, 0),
                        val: 0,
                    }],
                    term: Terminator::Jump(BlockId(1)),
                },
                Block {
                    instrs: vec![Instr::Alu {
                        op: AluOp::Add,
                        dst: r(Bank::A, 0),
                        a: r(Bank::A, 0),
                        b: AluSrc::Imm(1),
                    }],
                    term: Terminator::Branch {
                        cond: Cond::Lt,
                        a: r(Bank::A, 0),
                        b: AluSrc::Imm(5),
                        if_true: BlockId(1),
                        if_false: BlockId(2),
                    },
                },
                Block {
                    instrs: vec![
                        Instr::Move {
                            dst: r(Bank::S, 0),
                            src: r(Bank::A, 0),
                        },
                        Instr::MemWrite {
                            space: MemSpace::Sram,
                            addr: Addr::Imm(0),
                            src: vec![r(Bank::S, 0)],
                        },
                    ],
                    term: Terminator::Halt,
                },
            ],
            entry: BlockId(0),
        };
        let mut mem = SimMemory::with_sizes(16, 16, 16);
        simulate_chip(&prog, &mut mem, &one_engine(1)).unwrap();
        assert_eq!(mem.sram[0], 5);
    }

    /// One two-word SDRAM read, then halt.
    fn sdram_read_once() -> Program<PhysReg> {
        Program {
            blocks: vec![Block {
                instrs: vec![Instr::MemRead {
                    space: MemSpace::Sdram,
                    addr: Addr::Imm(0),
                    dst: vec![r(Bank::Ld, 0), r(Bank::Ld, 1)],
                }],
                term: Terminator::Halt,
            }],
            entry: BlockId(0),
        }
    }

    #[test]
    fn memory_latency_blocks_thread() {
        let mut mem = SimMemory::with_sizes(16, 16, 16);
        mem.sdram[0] = 0xAA;
        let res = simulate_chip(&sdram_read_once(), &mut mem, &one_engine(1)).unwrap();
        assert!(
            res.cycles >= read_latency(MemSpace::Sdram),
            "cycles: {}",
            res.cycles
        );
        assert_eq!(res.engines[0].swap_outs, 1);
        assert!(
            res.engines[0].idle_cycles > 0,
            "the lone context waits on the read"
        );
    }

    #[test]
    fn multithreading_hides_latency() {
        // Each context: read sdram, halt. With 4 contexts the reads overlap.
        let cycles = |contexts: usize| {
            let mut mem = SimMemory::with_sizes(16, 16, 16);
            simulate_chip(&sdram_read_once(), &mut mem, &one_engine(contexts))
                .unwrap()
                .cycles
        };
        let (one, four) = (cycles(1), cycles(4));
        // 4 reads but nowhere near 4x the time.
        assert!(four < one * 3, "1 context {one} vs 4 contexts {four}");
    }

    #[test]
    fn packet_flow() {
        // rx -> tx loop until the queue drains.
        let prog = Program {
            blocks: vec![Block {
                instrs: vec![
                    Instr::RxPacket {
                        len_dst: r(Bank::A, 0),
                        addr_dst: r(Bank::A, 1),
                    },
                    Instr::TxPacket {
                        addr: r(Bank::A, 1),
                        len: r(Bank::A, 0),
                    },
                ],
                term: Terminator::Jump(BlockId(0)),
            }],
            entry: BlockId(0),
        };
        let mut mem = SimMemory::with_sizes(16, 256, 16);
        for i in 0..5 {
            mem.rx_queue.push_back((64, i * 16));
        }
        let res = simulate_chip(&prog, &mut mem, &one_engine(4)).unwrap();
        assert_eq!(res.packets, 5);
        assert_eq!(res.bytes, 320);
        assert_eq!(mem.tx_log.len(), 5);
        assert!(res.mbps > 0.0);
        assert_eq!(res.engines[0].packets, 5);
    }

    #[test]
    fn cycle_limit_enforced() {
        let prog = Program {
            blocks: vec![Block {
                instrs: vec![],
                term: Terminator::Jump(BlockId(0)),
            }],
            entry: BlockId(0),
        };
        let mut mem = SimMemory::default();
        let cfg = ChipConfig {
            max_cycles: 1000,
            ..one_engine(1)
        };
        let res = simulate_chip(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(res.stop, StopReason::CycleLimit);
    }

    /// rx -> read sdram burst -> tx, until the queue drains.
    fn forwarder() -> Program<PhysReg> {
        Program {
            blocks: vec![Block {
                instrs: vec![
                    Instr::RxPacket {
                        len_dst: r(Bank::A, 0),
                        addr_dst: r(Bank::A, 1),
                    },
                    Instr::MemRead {
                        space: MemSpace::Sdram,
                        addr: Addr::Reg(r(Bank::A, 1), 0),
                        dst: vec![r(Bank::Ld, 0), r(Bank::Ld, 1)],
                    },
                    Instr::TxPacket {
                        addr: r(Bank::A, 1),
                        len: r(Bank::A, 0),
                    },
                ],
                term: Terminator::Jump(BlockId(0)),
            }],
            entry: BlockId(0),
        }
    }

    fn loaded_mem(packets: usize) -> SimMemory {
        let mut mem = SimMemory::with_sizes(64, 4096, 64);
        for i in 0..packets {
            mem.rx_queue.push_back((64, (i * 16) as u32));
        }
        mem
    }

    #[test]
    fn chip_processes_every_packet_exactly_once() {
        let prog = forwarder();
        let mut mem = loaded_mem(40);
        let cfg = ChipConfig {
            engines: 4,
            contexts: 2,
            ..ChipConfig::default()
        };
        let res = simulate_chip(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(res.stop, StopReason::AllHalted);
        assert_eq!(res.packets, 40);
        assert_eq!(mem.tx_log.len(), 40);
        assert!(mem.rx_queue.is_empty());
        // Every engine pulled some work from the shared queue.
        assert!(
            res.engines.iter().all(|e| e.packets > 0),
            "{:?}",
            res.engines
        );
        assert_eq!(res.engines.iter().map(|e| e.packets).sum::<u64>(), 40);
    }

    #[test]
    fn more_engines_finish_sooner_until_saturation() {
        let prog = forwarder();
        let cycles = |engines: usize| {
            let mut mem = loaded_mem(64);
            let cfg = ChipConfig {
                engines,
                contexts: 4,
                ..ChipConfig::default()
            };
            simulate_chip(&prog, &mut mem, &cfg).unwrap().cycles
        };
        let one = cycles(1);
        let four = cycles(4);
        assert!(four < one, "scaling: 1 engine {one} vs 4 engines {four}");
    }

    /// Forwarder traffic paced far apart, so the chip spends most of its
    /// modeled time with every context asleep — the fast path's case.
    fn paced_mem(packets: usize, gap: u64) -> SimMemory {
        let mut mem = SimMemory::with_sizes(64, 4096, 64);
        for i in 0..packets {
            mem.rx_arrivals
                .push_back((i as u64 * gap, 64, (i % 16 * 16) as u32));
        }
        mem
    }

    fn fingerprint(res: &SimResult, mem: &SimMemory) -> impl PartialEq + std::fmt::Debug {
        (
            res.cycles,
            res.instructions,
            res.packets,
            res.bytes,
            res.stop,
            res.engines.clone(),
            res.channels.clone(),
            mem.sram.clone(),
            mem.sdram.clone(),
            mem.tx_log.clone(),
            mem.rx_grants.clone(),
            mem.rx_dropped,
        )
    }

    #[test]
    fn fast_path_is_bit_identical_to_the_cycle_slice_oracle() {
        let prog = forwarder();
        let run = |mode: SimMode| {
            let mut mem = paced_mem(48, 700);
            mem.rx_capacity = 4;
            let cfg = ChipConfig {
                engines: 3,
                contexts: 2,
                mode,
                ..ChipConfig::default()
            };
            let res = simulate_chip(&prog, &mut mem, &cfg).unwrap();
            (fingerprint(&res, &mem), res)
        };
        let (slow, slow_res) = run(SimMode::CycleSlice);
        let (fast, fast_res) = run(SimMode::FastPath);
        assert_eq!(slow, fast);
        assert_eq!(slow_res.stop, StopReason::AllHalted);
        assert_eq!(fast_res.packets, 48);
    }

    #[test]
    fn fast_path_matches_oracle_under_a_cycle_limit() {
        let prog = forwarder();
        let run = |mode: SimMode| {
            let mut mem = paced_mem(64, 900);
            let cfg = ChipConfig {
                engines: 2,
                contexts: 2,
                max_cycles: 10_000,
                mode,
                ..ChipConfig::default()
            };
            let res = simulate_chip(&prog, &mut mem, &cfg).unwrap();
            (fingerprint(&res, &mem), res.stop)
        };
        let (slow, stop) = run(SimMode::CycleSlice);
        let (fast, _) = run(SimMode::FastPath);
        assert_eq!(stop, StopReason::CycleLimit, "test wants a partial run");
        assert_eq!(slow, fast);
    }

    #[test]
    fn fast_path_reports_its_skips_and_the_oracle_reports_none() {
        let prog = forwarder();
        let skips = |mode: SimMode| {
            let rec = nova_obs::MemoryRecorder::new();
            let obs = nova_obs::Obs::new(rec.clone());
            let mut mem = paced_mem(16, 2_000);
            let cfg = ChipConfig {
                engines: 2,
                contexts: 2,
                mode,
                ..ChipConfig::default()
            };
            simulate_chip_with(&prog, &mut mem, &cfg, &obs).unwrap();
            let sum = rec.summary();
            (
                sum.counter_total("sim.fastpath.skips").unwrap_or(0),
                sum.counter_total("sim.fastpath.skipped_cycles")
                    .unwrap_or(0),
            )
        };
        let (fast_skips, fast_cycles) = skips(SimMode::FastPath);
        assert!(fast_skips > 0, "paced traffic must trigger skips");
        assert!(fast_cycles >= fast_skips * 8, "each skip spans >= 1 epoch");
        assert_eq!(skips(SimMode::CycleSlice), (0, 0));
    }

    #[test]
    fn timed_traffic_with_a_small_buffer_drops_deterministically() {
        let prog = forwarder();
        let run = || {
            // A burst of simultaneous arrivals against a 2-slot buffer.
            let mut mem = SimMemory::with_sizes(64, 4096, 64);
            for i in 0..12u32 {
                mem.rx_arrivals.push_back((100, 64, i * 16));
            }
            mem.rx_capacity = 2;
            let cfg = ChipConfig {
                engines: 1,
                contexts: 1,
                ..ChipConfig::default()
            };
            let res = simulate_chip(&prog, &mut mem, &cfg).unwrap();
            (res.packets, mem.rx_dropped, mem.tx_log.len())
        };
        let (delivered, dropped, txed) = run();
        assert_eq!(delivered + dropped, 12, "conservation: offered = tx + drop");
        assert!(dropped > 0, "a 2-slot buffer cannot absorb a 12-deep burst");
        assert_eq!(delivered as usize, txed);
        assert_eq!(run(), (delivered, dropped, txed), "drops are deterministic");
    }

    /// A forwarder that transmits every packet with a constant tag as
    /// its length, so the tx log shows which image forwarded it.
    fn tagged_forwarder(tag: u32) -> Program<PhysReg> {
        Program {
            blocks: vec![Block {
                instrs: vec![
                    Instr::RxPacket {
                        len_dst: r(Bank::A, 0),
                        addr_dst: r(Bank::A, 1),
                    },
                    Instr::Imm {
                        dst: r(Bank::A, 2),
                        val: tag,
                    },
                    Instr::TxPacket {
                        addr: r(Bank::A, 1),
                        len: r(Bank::A, 2),
                    },
                ],
                term: Terminator::Jump(BlockId(0)),
            }],
            entry: BlockId(0),
        }
    }

    #[test]
    fn image_swap_takes_effect_between_packets() {
        let old = tagged_forwarder(11);
        let new = tagged_forwarder(22);
        let mut mem = paced_mem(30, 600);
        let cfg = ChipConfig {
            engines: 2,
            contexts: 2,
            ..ChipConfig::default()
        };
        let swaps = [ImageSwap {
            stall: 512,
            ..ImageSwap::new(10, new)
        }];
        let (res, reports) = simulate_chip_reload(&old, &swaps, &mut mem, &cfg).unwrap();
        assert_eq!(res.stop, StopReason::AllHalted);
        assert_eq!(mem.tx_log.len(), 30, "no packet is lost across the swap");
        let report = &reports[0];
        let swap_cycle = report.swap_cycle.expect("threshold was reached");
        // The swap is between packets: every tx is attributable to
        // exactly one image, old strictly before the swap barrier.
        let tags: Vec<u32> = mem.tx_log.iter().map(|&(_, len, _)| len).collect();
        let old_count = tags.iter().take_while(|&&t| t == 11).count();
        assert!(old_count >= 10, "swap cannot precede its threshold");
        assert!(
            tags[old_count..].iter().all(|&t| t == 22),
            "after the swap only the new image transmits: {tags:?}"
        );
        let first_new = report.first_tx_cycle.expect("new image forwarded packets");
        assert!(first_new > swap_cycle);
        assert!(
            report.update_cycles().unwrap() >= 512,
            "update latency includes the reload stall"
        );
    }

    #[test]
    fn image_swap_matches_between_scheduler_modes() {
        let run = |mode: SimMode| {
            let mut mem = paced_mem(32, 800);
            let cfg = ChipConfig {
                engines: 2,
                contexts: 2,
                mode,
                ..ChipConfig::default()
            };
            let swaps = [ImageSwap::new(12, tagged_forwarder(9))];
            let (res, reports) =
                simulate_chip_reload(&tagged_forwarder(7), &swaps, &mut mem, &cfg).unwrap();
            (fingerprint(&res, &mem), reports)
        };
        assert_eq!(run(SimMode::CycleSlice), run(SimMode::FastPath));
    }

    #[test]
    fn unreached_swap_threshold_reports_none() {
        let mut mem = loaded_mem(5);
        let cfg = ChipConfig {
            engines: 1,
            contexts: 1,
            ..ChipConfig::default()
        };
        let swaps = [ImageSwap::new(100, tagged_forwarder(2))];
        let (res, reports) = simulate_chip_reload(&forwarder(), &swaps, &mut mem, &cfg).unwrap();
        assert_eq!(res.packets, 5);
        assert_eq!(
            reports,
            vec![SwapReport {
                after_packets: 100,
                swap_cycle: None,
                first_tx_cycle: None,
                outcome: SwapOutcome::NotReached,
            }]
        );
    }

    /// An image that spins forever without receiving or transmitting:
    /// the wedged-update case the watchdog exists for.
    fn wedged_image() -> Program<PhysReg> {
        Program {
            blocks: vec![Block {
                instrs: vec![Instr::CtxSwap],
                term: Terminator::Jump(BlockId(0)),
            }],
            entry: BlockId(0),
        }
    }

    #[test]
    fn checksum_mismatch_rejects_the_swap_and_keeps_the_old_image() {
        let old = tagged_forwarder(11);
        let new = tagged_forwarder(22);
        let mut mem = paced_mem(24, 600);
        let cfg = ChipConfig {
            engines: 2,
            contexts: 2,
            ..ChipConfig::default()
        };
        // The manifest advertises a different image than was delivered.
        let wrong = image_checksum(&old);
        assert_ne!(wrong, image_checksum(&new));
        let swaps = [ImageSwap::new(8, new).with_checksum(wrong)];
        let (res, reports) = simulate_chip_reload(&old, &swaps, &mut mem, &cfg).unwrap();
        assert_eq!(res.stop, StopReason::AllHalted);
        assert_eq!(mem.tx_log.len(), 24, "rejected swap loses no packets");
        assert!(
            mem.tx_log.iter().all(|&(_, len, _)| len == 11),
            "the corrupt image must never run"
        );
        assert!(matches!(
            reports[0].outcome,
            SwapOutcome::RejectedChecksum { .. }
        ));
        assert_eq!(reports[0].swap_cycle, None);
    }

    #[test]
    fn matching_checksum_applies_the_swap() {
        let old = tagged_forwarder(11);
        let new = tagged_forwarder(22);
        let sum = image_checksum(&new);
        let mut mem = paced_mem(24, 600);
        let cfg = ChipConfig {
            engines: 2,
            contexts: 2,
            ..ChipConfig::default()
        };
        let swaps = [ImageSwap::new(8, new).with_checksum(sum)];
        let (_, reports) = simulate_chip_reload(&old, &swaps, &mut mem, &cfg).unwrap();
        assert_eq!(reports[0].outcome, SwapOutcome::Applied);
        assert!(mem.tx_log.iter().any(|&(_, len, _)| len == 22));
    }

    #[test]
    fn watchdog_reverts_a_wedged_image_and_traffic_recovers() {
        let old = tagged_forwarder(11);
        let mut mem = paced_mem(30, 600);
        let cfg = ChipConfig {
            engines: 2,
            contexts: 2,
            ..ChipConfig::default()
        };
        let swaps = [ImageSwap {
            stall: 256,
            ..ImageSwap::new(10, wedged_image())
        }
        .with_watchdog(2_000)];
        let (res, reports) = simulate_chip_reload(&old, &swaps, &mut mem, &cfg).unwrap();
        assert_eq!(res.stop, StopReason::AllHalted, "the chip must not wedge");
        let report = &reports[0];
        let SwapOutcome::RevertedWatchdog { at } = report.outcome else {
            panic!("expected a watchdog revert, got {:?}", report.outcome);
        };
        let swap_cycle = report.swap_cycle.expect("the swap fired");
        assert!(
            at >= swap_cycle + 256 + 2_000,
            "revert waits out stall + window: {at} vs swap {swap_cycle}"
        );
        // Every offered packet is eventually forwarded by the restored
        // image: the wedge delayed traffic but lost none (admission only
        // happens at rx grants, which the wedged image never issued).
        assert_eq!(mem.tx_log.len(), 30, "rollback restores the data plane");
        assert!(mem.tx_log.iter().all(|&(_, len, _)| len == 11));
        let first_after = report.first_tx_cycle.expect("traffic recovered");
        assert!(first_after >= at + 256, "recovery pays the restore stall");
    }

    #[test]
    fn watchdog_reverts_a_bricked_image_before_the_deadline() {
        let old = tagged_forwarder(11);
        let brick = Program {
            blocks: vec![Block {
                instrs: vec![],
                term: Terminator::Halt,
            }],
            entry: BlockId(0),
        };
        let mut mem = paced_mem(20, 600);
        let cfg = ChipConfig {
            engines: 2,
            contexts: 2,
            ..ChipConfig::default()
        };
        // Window far beyond the run: only the all-halted trigger can fire.
        let swaps = [ImageSwap {
            stall: 256,
            ..ImageSwap::new(8, brick)
        }
        .with_watchdog(50_000_000)];
        let (res, reports) = simulate_chip_reload(&old, &swaps, &mut mem, &cfg).unwrap();
        assert_eq!(res.stop, StopReason::AllHalted);
        let SwapOutcome::RevertedWatchdog { at } = reports[0].outcome else {
            panic!("expected a watchdog revert, got {:?}", reports[0].outcome);
        };
        let swap_cycle = reports[0].swap_cycle.unwrap();
        assert!(
            at < swap_cycle + 256 + 50_000_000,
            "a bricked chip reverts immediately, not at the deadline"
        );
        assert_eq!(mem.tx_log.len(), 20, "all traffic drains after revert");
    }

    #[test]
    fn watchdog_commits_quietly_when_the_new_image_is_healthy() {
        let old = tagged_forwarder(11);
        let new = tagged_forwarder(22);
        let mut mem = paced_mem(30, 600);
        let cfg = ChipConfig {
            engines: 2,
            contexts: 2,
            ..ChipConfig::default()
        };
        let swaps = [ImageSwap::new(10, new).with_watchdog(100_000)];
        let (res, reports) = simulate_chip_reload(&old, &swaps, &mut mem, &cfg).unwrap();
        assert_eq!(res.stop, StopReason::AllHalted);
        assert_eq!(reports[0].outcome, SwapOutcome::Applied);
        assert_eq!(mem.tx_log.len(), 30);
        assert!(mem.tx_log.iter().any(|&(_, len, _)| len == 22));
    }

    #[test]
    fn faulted_swaps_match_between_scheduler_modes() {
        let run = |mode: SimMode| {
            let mut mem = paced_mem(40, 500);
            let cfg = ChipConfig {
                engines: 3,
                contexts: 2,
                mode,
                ..ChipConfig::default()
            };
            let swaps = [
                ImageSwap::new(6, tagged_forwarder(2)).with_checksum(7), // corrupt
                ImageSwap {
                    stall: 256,
                    ..ImageSwap::new(12, wedged_image())
                }
                .with_watchdog(1_500),
            ];
            let (res, reports) =
                simulate_chip_reload(&tagged_forwarder(1), &swaps, &mut mem, &cfg).unwrap();
            (fingerprint(&res, &mem), reports)
        };
        let a = run(SimMode::FastPath);
        assert_eq!(a, run(SimMode::CycleSlice));
        assert!(matches!(
            a.1[0].outcome,
            SwapOutcome::RejectedChecksum { .. }
        ));
        assert!(matches!(
            a.1[1].outcome,
            SwapOutcome::RevertedWatchdog { .. }
        ));
    }

    #[test]
    fn cycle_limit_returns_partial_stats() {
        let prog = Program {
            blocks: vec![Block {
                instrs: vec![],
                term: Terminator::Jump(BlockId(0)),
            }],
            entry: BlockId(0),
        };
        let mut mem = SimMemory::default();
        let cfg = ChipConfig {
            engines: 2,
            max_cycles: 1000,
            ..ChipConfig::default()
        };
        let res = simulate_chip(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(res.stop, StopReason::CycleLimit);
        assert!(res.cycles <= 1000);
        assert!(res.instructions > 0, "partial stats survive the stop");
    }
}
