//! The fixed thread topology of every configuration the benchmark builds.
//!
//! Do not "fix" these back to automatic. The workloads were sized on a
//! 2-vCPU host, and with `ChipConfig::host_threads` left on auto that host
//! runs the AES chip at 342 packets per host second against 13.6 k with
//! one host thread per chip: six engine workers time-slicing two cores
//! spend their time at the slice barrier, so the number measures the
//! scheduler, not the simulator. The same reasoning pins the solver to one
//! thread, which also keeps allocations bit-deterministic (as
//! `crates/bench` already does), and ties the three kinds of parallel
//! lane — server workers, closed-loop clients, topology chips — to one
//! number so no lane oversubscribes the host.

use ixp_sim::{ChipConfig, SimMode, TopologyConfig};
use nova::CompileConfig;
use std::path::Path;

/// Host threads driving one simulated chip's engines.
pub const HOST_THREADS_PER_CHIP: usize = 1;
/// ILP worker threads per solve.
pub const SOLVER_THREADS: usize = 1;
/// Lanes the workloads were sized for (the sizing host's `nproc`).
pub const SIZED_LANES: usize = 2;

/// The resolved pins of this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pins {
    /// `available_parallelism()` of this host, recorded with every result.
    pub nproc: usize,
    /// Server workers = closed-loop clients = topology chips. Two, clamped
    /// to one on a single-core host (and recorded, so the numbers are not
    /// compared against a two-lane run unknowingly).
    pub lanes: usize,
}

impl Pins {
    pub fn for_host() -> Pins {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Pins {
            nproc,
            lanes: nproc.clamp(1, SIZED_LANES),
        }
    }
}

/// Compile configuration of every session and server in the benchmark.
pub fn compile_config(persist_dir: Option<&Path>) -> CompileConfig {
    let b = CompileConfig::builder().solver_threads(SOLVER_THREADS);
    match persist_dir {
        Some(dir) => b.persist_dir(dir).build(),
        None => b.build(),
    }
}

/// A full IXP1200 (6 engines x 4 contexts) on one host thread.
pub fn chip_config(slice: u64, mode: SimMode) -> ChipConfig {
    ChipConfig {
        max_cycles: 1 << 36,
        slice,
        host_threads: HOST_THREADS_PER_CHIP,
        mode,
        ..ChipConfig::default()
    }
}

/// The rack every topology and rollout run uses: `lanes` chips (one host
/// thread each), a 64-packet receive buffer per chip and a 32-cycle
/// arbitration epoch — the shape `BENCH_traffic.json` was recorded with.
pub fn topology_config(pins: Pins, mode: SimMode) -> TopologyConfig {
    TopologyConfig {
        chips: pins.lanes,
        chip: chip_config(32, mode),
        rx_capacity: 64,
        slots_per_class: 128,
        overrides: Vec::new(),
    }
}
