//! Cycle-approximate simulator for IXP1200 micro-engine programs.
//!
//! The paper's throughput numbers (§11) came from a 233 MHz IXP1200 fed by
//! a hardware packet generator. This crate replaces that testbed: it
//! executes allocated machine code (`Program<PhysReg>`) against a memory
//! and packet model, charging the documented cycle costs
//! ([`ixp_machine::timing`]) — single-cycle ALU issue, multi-cycle
//! SRAM/SDRAM/scratch latencies with channel contention, pipeline refill
//! on taken branches — and models the micro-engine's hardware
//! multi-threading: a thread that issues a memory reference is swapped out
//! until the reference completes, letting the other contexts hide the
//! latency (the property the paper's applications rely on for line rate).
//!
//! There is one interpreter ([`simulate_chip`]); a single micro-engine is
//! [`ChipConfig`] with `engines: 1`, so every configuration is a point of
//! the same timing model.
//!
//! The simulator doubles as the compiler's final correctness oracle: its
//! architectural results must match the CPS reference interpreter bit for
//! bit on every workload.

#![warn(missing_docs)]

mod chip;
mod engine;
mod machine;
mod packets;
mod rollout;
mod sim;
mod topology;

pub use chip::{
    image_checksum, simulate_chip, simulate_chip_reload, simulate_chip_with, ChipConfig, ImageSwap,
    SwapOutcome, SwapReport, CONTROL_STORE_RELOAD_CYCLES,
};
pub use machine::{RxGrant, SimMemory};
pub use packets::{FlowPacket, PacketGen, PacketSpec, TrafficSpec};
pub use rollout::{
    big_bang_rollout, staged_rollout, DisruptionReport, HealthSlo, RollbackReason, RolloutConfig,
    RolloutFaults, RolloutOutcome, RolloutReport, StageOutcome, StageReport, WindowHealth,
};
pub use sim::{EngineStats, SimError, SimMode, SimResult, StopReason};
pub use topology::{
    shard_of, simulate_topology, ChipShard, LatencySummary, TopologyConfig, TopologyError,
    TopologyResult,
};
