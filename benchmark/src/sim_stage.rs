//! Bulk simulation: a compiled image forwarding packets on simulated
//! chips, timed on the host and measured on the model.
//!
//! Two job shapes cover the simulator's two regimes. A *topology* job
//! runs flow-level traffic through the sharded rack (memory-bound
//! programs under paced arrivals are mostly idle time the fast path
//! skips); a *chip* job runs one saturated chip over pre-queued packets
//! (compute-bound, nothing to skip, every host nanosecond is the
//! interpreter).

use crate::pins::{self, Pins};
use crate::programs::{Checks, Prog};
use crate::stats;
use crate::trace::Tracer;
use ixp_machine::{PhysReg, Program};
use ixp_sim::{
    simulate_chip, simulate_topology, ChipConfig, SimMemory, SimMode, SimResult, TopologyResult,
    TrafficSpec,
};
use std::time::Instant;

/// The hook that pre-writes packet buffers for a topology run.
pub type WritePacket = Box<dyn Fn(&mut SimMemory, u32, u32)>;

/// One bulk-simulation job.
pub enum SimJob {
    /// `spec`'s trace through the `pins.lanes`-chip rack. The timed
    /// section is trace generation plus `simulate_topology`.
    Topology {
        image: Program<PhysReg>,
        write_packet: WritePacket,
        spec: TrafficSpec,
    },
    /// `packets` pre-queued packets on one 6x4 chip. The timed section
    /// is `simulate_chip`; the packet memory is prepared once and cloned.
    Chip {
        prog: Prog,
        image: Program<PhysReg>,
        packets: usize,
        slice: u64,
        /// Check every n-th transmitted packet against the reference.
        check_step: usize,
    },
}

/// What one timed run of a job produced.
pub struct SimSample {
    pub wall_s: f64,
    /// Host seconds of trace generation inside `wall_s` (topology only).
    pub generate_s: f64,
    pub delivered: u64,
    pub instructions: u64,
    pub mbps: f64,
    /// Modeled arrival-to-transmit latency, 99th percentile (nearest
    /// rank). Pre-queued packets all arrive at cycle 0.
    pub latency_p99_cycles: u64,
    /// Per-chip results, for the per-layer counters.
    pub results: Vec<SimResult>,
}

/// A job plus whatever it prepares once per set-up.
pub struct PreparedJob {
    pub job: SimJob,
    /// Chip jobs: the pristine packet memory and packet addresses.
    chip_mem: Option<(SimMemory, Vec<u32>)>,
}

impl PreparedJob {
    pub fn new(job: SimJob, seed: u64) -> Self {
        let chip_mem = match &job {
            SimJob::Chip { prog, packets, .. } => Some(prog.packet_memory(*packets, seed)),
            SimJob::Topology { .. } => None,
        };
        PreparedJob { job, chip_mem }
    }

    /// Run the job once. Correctness is checked on every run (outside
    /// the timed section): packet conservation, and for chip jobs the
    /// transmitted packets against the Rust reference.
    pub fn run_once(&self, pins: Pins, tracer: &Tracer, checks: &mut Checks) -> SimSample {
        match &self.job {
            SimJob::Topology {
                image,
                write_packet,
                spec,
            } => {
                let cfg = pins::topology_config(pins, SimMode::FastPath);
                let start = Instant::now();
                let trace = tracer.span("ixp-sim.generate", 0, || spec.generate());
                let generate_s = start.elapsed().as_secs_f64();
                let res = tracer.span("ixp-sim.simulate_topology", 0, || {
                    simulate_topology(image, &cfg, &trace, write_packet.as_ref())
                });
                let wall_s = start.elapsed().as_secs_f64();
                let res = res.expect("validated images simulate without architectural errors");
                check_conservation(&res, trace.len() as u64, checks);
                SimSample {
                    wall_s,
                    generate_s,
                    delivered: res.delivered,
                    instructions: res.chips.iter().map(|c| c.result.instructions).sum(),
                    mbps: res.mbps,
                    latency_p99_cycles: res.latency.p99,
                    results: res.chips.into_iter().map(|c| c.result).collect(),
                }
            }
            SimJob::Chip {
                prog,
                image,
                packets,
                slice,
                check_step,
            } => {
                let (pristine, addrs) = self.chip_mem.as_ref().expect("chip jobs prepare memory");
                let mut mem = pristine.clone();
                let cfg = pins::chip_config(*slice, SimMode::FastPath);
                let start = Instant::now();
                let res = tracer.span("ixp-sim.simulate_chip", 0, || {
                    simulate_chip(image, &mut mem, &cfg)
                });
                let wall_s = start.elapsed().as_secs_f64();
                let res = res.expect("validated images simulate without architectural errors");
                checks.check(
                    res.packets == *packets as u64 && mem.tx_log.len() == *packets,
                    || {
                        format!(
                            "{}: {} of {packets} queued packets transmitted",
                            prog.name(),
                            res.packets
                        )
                    },
                );
                prog.check_outputs(&pristine.sdram, &mem, addrs, *check_step, checks);
                let mut done: Vec<f64> = mem.tx_log.iter().map(|&(_, _, c)| c as f64).collect();
                done.sort_by(f64::total_cmp);
                SimSample {
                    wall_s,
                    generate_s: 0.0,
                    delivered: res.packets,
                    instructions: res.instructions,
                    mbps: res.mbps,
                    latency_p99_cycles: stats::percentile_sorted(&done, 99.0) as u64,
                    results: vec![res],
                }
            }
        }
    }

    /// Differential check of the fast path against the cycle-slice oracle
    /// on a prefix of the job: identical `(cycles, packets, tx_log)` for a
    /// chip job, identical totals and latency summary for a topology job.
    /// Returns fast-path wall over oracle wall on that prefix.
    pub fn oracle_ratio(&self, pins: Pins, prefix: usize, seed: u64, checks: &mut Checks) -> f64 {
        let (fast_wall, oracle_wall, agree) = match &self.job {
            SimJob::Chip {
                prog, image, slice, ..
            } => {
                let (pristine, _) = prog.packet_memory(prefix, seed);
                let run = |mode: SimMode| {
                    let mut mem = pristine.clone();
                    let cfg: ChipConfig = pins::chip_config(*slice, mode);
                    let start = Instant::now();
                    let res = simulate_chip(image, &mut mem, &cfg);
                    let wall = start.elapsed().as_secs_f64();
                    let res = res.expect("validated images simulate");
                    (wall, (res.cycles, res.packets, mem.tx_log))
                };
                let (fast_wall, fast) = run(SimMode::FastPath);
                let (oracle_wall, oracle) = run(SimMode::CycleSlice);
                (fast_wall, oracle_wall, fast == oracle)
            }
            SimJob::Topology {
                image,
                write_packet,
                spec,
            } => {
                let trace = TrafficSpec {
                    packets: prefix,
                    ..spec.clone()
                }
                .generate();
                let run = |mode: SimMode| {
                    let cfg = pins::topology_config(pins, mode);
                    let start = Instant::now();
                    let res = simulate_topology(image, &cfg, &trace, write_packet.as_ref());
                    let wall = start.elapsed().as_secs_f64();
                    let res: TopologyResult = res.expect("validated images simulate");
                    (wall, (res.cycles, res.delivered, res.dropped, res.latency))
                };
                let (fast_wall, fast) = run(SimMode::FastPath);
                let (oracle_wall, oracle) = run(SimMode::CycleSlice);
                (fast_wall, oracle_wall, fast == oracle)
            }
        };
        checks.check(agree, || {
            "fast path diverges from the cycle-slice oracle".to_string()
        });
        fast_wall / oracle_wall
    }
}

/// Every offered packet is either delivered or counted dropped.
pub fn check_conservation(res: &TopologyResult, trace_len: u64, checks: &mut Checks) {
    checks.check(
        res.offered == trace_len && res.offered == res.delivered + res.dropped,
        || {
            format!(
                "topology: {} offered of {trace_len}, {} delivered + {} dropped",
                res.offered, res.delivered, res.dropped
            )
        },
    );
}
