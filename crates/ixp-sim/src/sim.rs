//! Result, statistics and error types of a simulation run.
//!
//! There is one interpreter of the micro-ISA — [`crate::chip`] — and a
//! single micro-engine is its `engines: 1` configuration. This module
//! holds what every entry point of that interpreter (chip, topology,
//! rollout) reports: the [`SimResult`] and its per-engine telemetry, the
//! stop reason, the scheduler mode, and the observability summary.

use ixp_machine::channel::{Channel, ChannelStats};
use ixp_machine::timing::CLOCK_HZ;
use ixp_machine::{BlockId, MemSpace};
use std::collections::HashMap;

/// Time-advance strategy of the simulator.
///
/// Both modes are required to produce bit-identical [`SimResult`]s — the
/// differential tests enforce it on every workload. The split exists
/// because grinding idle arbitration epochs one at a time dominates host
/// time on lightly loaded chips and paced traffic, capping how many
/// packets a CI run can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimMode {
    /// Advance one arbitration epoch at a time even when every context is
    /// blocked. The bit-exact differential oracle the fast path is tested
    /// against.
    CycleSlice,
    /// Event-driven: when every context on every engine is blocked past
    /// the current epoch, jump straight to the epoch containing the
    /// earliest wake-up ([`ixp_machine::channel::Channel::next_event`]
    /// documents why context wake-ups enumerate *all* future events).
    /// The default.
    #[default]
    FastPath,
}

/// Why the simulation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every thread reached `halt` (or found the receive queue empty).
    AllHalted,
    /// The cycle budget ran out: the result carries partial statistics of
    /// an unfinished run.
    CycleLimit,
}

/// Per-engine execution telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Engine index on the chip.
    pub engine: usize,
    /// Instructions issued by this engine's contexts.
    pub instructions: u64,
    /// Context swap-outs (a context yielding the pipeline on a memory
    /// reference, hash, packet operation, or explicit `ctx_swap`).
    pub swap_outs: u64,
    /// Cycles with no runnable context (every context swapped out —
    /// latency the hardware threading failed to hide).
    pub idle_cycles: u64,
    /// Packets transmitted by this engine.
    pub packets: u64,
    /// Payload+header bytes transmitted by this engine.
    pub bytes: u64,
    /// Cycle at which the engine's last context halted (0 if it never
    /// fully halted).
    pub halt_cycle: u64,
}

impl EngineStats {
    pub(crate) fn new(engine: usize) -> Self {
        EngineStats {
            engine,
            instructions: 0,
            swap_outs: 0,
            idle_cycles: 0,
            packets: 0,
            bytes: 0,
            halt_cycle: 0,
        }
    }
}

/// Execution outcome.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Instructions issued (all threads).
    pub instructions: u64,
    /// Memory references issued per space (reads, writes).
    pub mem_refs: HashMap<MemSpace, (u64, u64)>,
    /// Packets fully processed (transmitted).
    pub packets: u64,
    /// Payload bytes transmitted.
    pub bytes: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Throughput in megabits per second at the modeled clock, counting
    /// transmitted bytes (the paper's measure).
    pub mbps: f64,
    /// Per-channel occupancy/queueing telemetry (SRAM, SDRAM, scratch).
    pub channels: Vec<ChannelStats>,
    /// Per-engine telemetry (one entry per micro-engine).
    pub engines: Vec<EngineStats>,
}

/// Architectural errors (all indicate compiler or simulator bugs — the
/// validator should reject programs that could trigger them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Jump target out of range.
    BadTarget(BlockId),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadTarget(b) => write!(f, "jump to nonexistent block {b}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Publish a finished run's telemetry: per-channel counters
/// (`sim.channel.<space>.{reads,writes,busy_cycles,wait_cycles,max_queue_depth}`),
/// a final `sim.channel.<space>.occupancy` sample, and per-engine stall
/// breakdowns (`sim.engine.<i>.{instructions,swap_outs,idle_cycles,packets}`
/// counters plus a `sim.engine.idle_frac` sample per engine).
pub(crate) fn emit_result_obs(obs: &nova_obs::Obs, res: &SimResult) {
    if !obs.enabled() {
        return;
    }
    obs.counter("sim.cycles", res.cycles);
    obs.counter("sim.instructions", res.instructions);
    obs.counter("sim.packets", res.packets);
    obs.counter("sim.bytes", res.bytes);
    for c in &res.channels {
        let space = format!("{:?}", c.space).to_lowercase();
        obs.counter(&format!("sim.channel.{space}.reads"), c.reads);
        obs.counter(&format!("sim.channel.{space}.writes"), c.writes);
        obs.counter(&format!("sim.channel.{space}.busy_cycles"), c.busy_cycles);
        obs.counter(&format!("sim.channel.{space}.wait_cycles"), c.wait_cycles);
        obs.counter(
            &format!("sim.channel.{space}.max_queue_depth"),
            c.max_queue_depth as u64,
        );
        obs.sample(
            &format!("sim.channel.{space}.occupancy"),
            c.occupancy(res.cycles),
        );
    }
    for e in &res.engines {
        let i = e.engine;
        obs.counter(&format!("sim.engine.{i}.instructions"), e.instructions);
        obs.counter(&format!("sim.engine.{i}.swap_outs"), e.swap_outs);
        obs.counter(&format!("sim.engine.{i}.idle_cycles"), e.idle_cycles);
        obs.counter(&format!("sim.engine.{i}.packets"), e.packets);
        if res.cycles > 0 {
            obs.sample(
                "sim.engine.idle_frac",
                e.idle_cycles as f64 / res.cycles as f64,
            );
        }
    }
}

/// Assemble a [`SimResult`] from a finished run's raw counters.
pub(crate) fn finish_result(
    cycles: u64,
    mem_refs: HashMap<MemSpace, (u64, u64)>,
    stop: StopReason,
    channels: [Channel; 3],
    engines: Vec<EngineStats>,
) -> SimResult {
    let instructions = engines.iter().map(|e| e.instructions).sum();
    let packets = engines.iter().map(|e| e.packets).sum();
    let bytes: u64 = engines.iter().map(|e| e.bytes).sum();
    let seconds = cycles as f64 / CLOCK_HZ as f64;
    let mbps = if seconds > 0.0 {
        (bytes as f64 * 8.0) / seconds / 1.0e6
    } else {
        0.0
    };
    SimResult {
        cycles,
        instructions,
        mem_refs,
        packets,
        bytes,
        stop,
        mbps,
        channels: channels.into_iter().map(|c| c.stats).collect(),
        engines,
    }
}
