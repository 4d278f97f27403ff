//! Resilient live updates: health-gated staged rollouts with automatic
//! rollback across the sharded topology.
//!
//! PR 9 gave the chip a hot-reload mechanism ([`simulate_chip_reload`]);
//! this module gives it a *policy*. The paper's compiler exists so a chip
//! can keep processing live traffic while its rules change — but nothing
//! about the mechanism survives a bad update. Here a rollout is treated
//! the way Merlin treats provisioning and Kugelblitz treats
//! configurations (PAPERS.md): a constraint-checked, measured step that
//! is only committed when observed health proves it out.
//!
//! The controller updates one chip at a time, in shard order. Each stage:
//!
//! 1. replays that shard's slice of the flow-level trace through
//!    [`simulate_chip_reload`] with the new image scheduled at a packet
//!    threshold — checksum-validated at the barrier and guarded by the
//!    no-transmit watchdog ([`ImageSwap::with_checksum`] /
//!    [`ImageSwap::with_watchdog`]);
//! 2. measures per-flow disruption through the swap: packets aborted in
//!    flight (granted but never transmitted), drop and latency deltas in
//!    pre/during/post windows around the reload stall;
//! 3. gates on health SLOs against the same shard's pre-rollout baseline
//!    (drop-rate delta and p99-latency factor). A violation triggers a
//!    deterministic automatic rollback — the stage is re-run with a
//!    scheduled swap *back* to the old image after the observation
//!    window, so the reported stage reflects what a real rollback does to
//!    traffic — and halts the rollout (remaining chips stay on the old
//!    image).
//!
//! Every decision is a pure function of the trace and the configuration,
//! so the same rollout run twice gives equal reports — the property the
//! proptests in `tests/rollout.rs` pin down.

use crate::chip::{
    image_checksum, simulate_chip_reload, ImageSwap, SwapOutcome, SwapReport,
    CONTROL_STORE_RELOAD_CYCLES,
};
use crate::machine::SimMemory;
use crate::packets::FlowPacket;
use crate::topology::{
    grant_latencies, shard_memory, shard_of, simulate_topology, LatencySummary, TopologyConfig,
    TopologyError,
};
use ixp_machine::{Block, BlockId, Instr, PhysReg, Program, Terminator};
use std::collections::HashSet;

/// Per-stage health gates, expressed relative to the pre-rollout
/// baseline of the same shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSlo {
    /// Maximum allowed increase in drop rate (fraction of the shard's
    /// offered packets) over the baseline run.
    pub max_drop_delta: f64,
    /// Maximum allowed post-swap p99 latency as a multiple of the
    /// baseline p99.
    pub max_p99_factor: f64,
}

impl Default for HealthSlo {
    fn default() -> Self {
        HealthSlo {
            max_drop_delta: 0.05,
            max_p99_factor: 2.0,
        }
    }
}

/// Seeded swap-path fault schedule: which stages receive a corrupt image
/// (checksum mismatch at the barrier) and which receive a wedged image
/// (applies, then never transmits — the watchdog's case). The chip-level
/// [`ixp_machine::channel::ChannelFaults`] remain available through
/// [`TopologyConfig::overrides`] for bus-level fault campaigns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RolloutFaults {
    /// Stages whose delivered image is corrupted in transit.
    pub corrupt_stages: Vec<usize>,
    /// Stages whose new image wedges (runs but never forwards).
    pub wedge_stages: Vec<usize>,
}

impl RolloutFaults {
    fn corrupt(&self, stage: usize) -> bool {
        self.corrupt_stages.contains(&stage)
    }

    fn wedged(&self, stage: usize) -> bool {
        self.wedge_stages.contains(&stage)
    }
}

/// Parameters of a staged rollout.
#[derive(Debug, Clone)]
pub struct RolloutConfig {
    /// The rack being updated (chip count, per-chip config, overrides).
    pub topology: TopologyConfig,
    /// Per-shard transmitted-packet threshold at which the new image is
    /// swapped in.
    pub swap_after: u64,
    /// Observation window, in transmitted packets after the swap, that a
    /// rollback re-run lets the new image run before swapping back.
    pub observe_packets: u64,
    /// Control-store rewrite stall per swap (default
    /// [`CONTROL_STORE_RELOAD_CYCLES`]).
    pub stall: u64,
    /// No-transmit watchdog window armed on every stage's swap.
    pub watchdog: u64,
    /// Validate the image checksum at the swap barrier.
    pub verify_checksum: bool,
    /// Health gates for the commit decision.
    pub slo: HealthSlo,
    /// Injected swap-path faults.
    pub faults: RolloutFaults,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        RolloutConfig {
            topology: TopologyConfig::default(),
            swap_after: 64,
            observe_packets: 128,
            stall: CONTROL_STORE_RELOAD_CYCLES,
            watchdog: 1 << 16,
            verify_checksum: true,
            slo: HealthSlo::default(),
            faults: RolloutFaults::default(),
        }
    }
}

/// Why a stage was rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackReason {
    /// The delivered image failed checksum validation at the barrier;
    /// the old image never stopped running.
    ChecksumRejected,
    /// The new image transmitted nothing inside its watchdog window (or
    /// bricked the chip); the sim reverted it at a barrier.
    WatchdogFired,
    /// The new image ran but its drop rate exceeded the baseline by more
    /// than [`HealthSlo::max_drop_delta`].
    DropSlo,
    /// The new image ran but its post-swap p99 latency exceeded
    /// baseline × [`HealthSlo::max_p99_factor`].
    LatencySlo,
}

/// Outcome of one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutcome {
    /// The new image is live on this chip.
    Committed,
    /// The chip is back on (or never left) the old image.
    RolledBack(RollbackReason),
}

/// Outcome of the whole rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutOutcome {
    /// Every chip committed the new image.
    Committed,
    /// The rollout halted at `stage`; that chip and every later one run
    /// the old image.
    RolledBack {
        /// Chip index at which the rollout halted.
        stage: usize,
        /// Why that stage failed its gate.
        reason: RollbackReason,
    },
}

/// Delivered/dropped counts and latency order statistics inside one
/// disruption window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowHealth {
    /// Packets transmitted in the window.
    pub delivered: u64,
    /// Packets tail-dropped in the window.
    pub dropped: u64,
    /// Latency order statistics of the window's delivered packets.
    pub latency: LatencySummary,
}

/// Per-flow disruption accounting of one stage, split around the swap:
/// `pre` is wire time before the swap barrier, `during` is the outage
/// window (swap barrier until the first packet out of the post-swap
/// image), `post` is after service resumed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DisruptionReport {
    /// Packets the shard's rx unit was offered (admitted + dropped).
    pub offered: u64,
    /// Packets the shard transmitted.
    pub delivered: u64,
    /// Packets tail-dropped at the full receive buffer.
    pub dropped: u64,
    /// Packets granted to a context but never transmitted — aborted in
    /// flight by the swap (control flow does not survive a reload).
    pub aborted_in_flight: u64,
    /// Distinct flows that lost at least one packet (drop or abort).
    pub disrupted_flows: u64,
    /// Health before the swap barrier.
    pub pre: WindowHealth,
    /// Health through the outage window.
    pub during: WindowHealth,
    /// Health after service resumed.
    pub post: WindowHealth,
    /// Swap barrier to first packet out of the image that ended up live
    /// (the new one, or the restored old one after a revert).
    pub update_cycles: Option<u64>,
}

/// One chip's stage of the rollout.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Chip index.
    pub chip: usize,
    /// Commit/rollback decision for this chip.
    pub outcome: StageOutcome,
    /// What the scheduled swap did at the barrier.
    pub swap: SwapReport,
    /// Shard drop rate in the pre-rollout baseline run.
    pub baseline_drop_rate: f64,
    /// Shard p99 latency in the pre-rollout baseline run.
    pub baseline_p99: u64,
    /// Shard drop rate in this stage's run.
    pub candidate_drop_rate: f64,
    /// Post-swap p99 latency in this stage's run.
    pub candidate_p99: u64,
    /// Per-flow disruption through the swap.
    pub disruption: DisruptionReport,
    /// For rolled-back stages: cycles from the rollback taking effect to
    /// the first packet through the restored image.
    pub rollback_cycles: Option<u64>,
}

/// The full rollout record: a pure function of trace and configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutReport {
    /// Overall outcome.
    pub outcome: RolloutOutcome,
    /// Per-stage reports, in the order stages ran. A halted rollout has
    /// fewer stages than chips (later chips never started).
    pub stages: Vec<StageReport>,
    /// Chips in the rack.
    pub chips: usize,
    /// Minimum number of chips serving traffic at full health at any
    /// instant of the rollout. Staged updates disrupt at most one chip
    /// at a time (`chips - 1`); a big-bang update's windows genuinely
    /// overlap on the simulation clock and this can reach 0.
    pub min_healthy_chips: usize,
}

/// An image that runs but never receives or transmits — the injected
/// "wedged update" the watchdog exists to catch.
fn wedge_image() -> Program<PhysReg> {
    Program {
        blocks: vec![Block {
            instrs: vec![Instr::CtxSwap],
            term: Terminator::Jump(BlockId(0)),
        }],
        entry: BlockId(0),
    }
}

/// Nearest-rank percentile of an unsorted latency sample.
fn p99_of(mut lat: Vec<u64>) -> u64 {
    lat.sort_unstable();
    LatencySummary::from_sorted(&lat).p99
}

/// The shard's slice of the global trace, in arrival order — index-aligned
/// with the shard memory's `rx_arrivals` / `rx_admissions`.
fn sub_trace(trace: &[FlowPacket], chips: usize, shard: usize) -> Vec<FlowPacket> {
    trace
        .iter()
        .filter(|p| shard_of(p.flow, chips) == shard)
        .copied()
        .collect()
}

/// Per-flow disruption accounting over a finished shard run. Joins the
/// admission log back to the shard trace (arrival order), and through the
/// FIFO backlog each admitted packet to its grant and latency.
fn disruption(sub: &[FlowPacket], run: &StageRun, swap: &SwapReport) -> DisruptionReport {
    let StageRun { mem, lats } = run;
    let swap_cycle = swap.swap_cycle;
    let recover = swap.first_tx_cycle;
    // 0 = pre, 1 = during (outage), 2 = post.
    let classify = |c: u64| -> usize {
        match swap_cycle {
            None => 0,
            Some(sc) if c < sc => 0,
            Some(_) => match recover {
                Some(r) if c >= r => 2,
                _ => 1,
            },
        }
    };
    let mut win_lat: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut win_drop = [0u64; 3];
    let mut aborted = 0u64;
    let mut disrupted: HashSet<u64> = HashSet::new();
    let mut grant_j = 0usize;
    for (i, p) in sub.iter().enumerate() {
        match mem.rx_admissions.get(i) {
            // The run ended (cycle limit) before this arrival was ever
            // offered to the rx unit.
            None => break,
            Some(false) => {
                win_drop[classify(p.arrival)] += 1;
                disrupted.insert(p.flow);
            }
            Some(true) => {
                let lat = lats.get(grant_j).copied().flatten();
                grant_j += 1;
                match lat {
                    Some(l) => win_lat[classify(p.arrival + l)].push(l),
                    None => {
                        aborted += 1;
                        disrupted.insert(p.flow);
                    }
                }
            }
        }
    }
    let offered = mem.rx_admissions.len() as u64;
    let delivered = win_lat.iter().map(|w| w.len() as u64).sum();
    let window = |i: usize| -> WindowHealth {
        let mut lat = win_lat[i].clone();
        lat.sort_unstable();
        WindowHealth {
            delivered: lat.len() as u64,
            dropped: win_drop[i],
            latency: LatencySummary::from_sorted(&lat),
        }
    };
    DisruptionReport {
        offered,
        delivered,
        dropped: mem.rx_dropped,
        aborted_in_flight: aborted,
        disrupted_flows: disrupted.len() as u64,
        pre: window(0),
        during: window(1),
        post: window(2),
        update_cycles: swap.update_cycles(),
    }
}

/// Build the stage's scheduled swap, with faults injected per schedule.
fn stage_swap(new: &Program<PhysReg>, cfg: &RolloutConfig, stage: usize) -> ImageSwap {
    let (image, expected) = if cfg.faults.wedged(stage) {
        // A wedged delivery still checksums clean — the bug is in the
        // rules, not the transport — so only the watchdog can catch it.
        let img = wedge_image();
        let sum = image_checksum(&img);
        (img, sum)
    } else if cfg.faults.corrupt(stage) {
        // The delivered bits no longer match the manifest.
        (new.clone(), image_checksum(new) ^ 0x1)
    } else {
        (new.clone(), image_checksum(new))
    };
    let mut swap = ImageSwap {
        stall: cfg.stall,
        ..ImageSwap::new(cfg.swap_after, image)
    }
    .with_watchdog(cfg.watchdog);
    if cfg.verify_checksum {
        swap = swap.with_checksum(expected);
    }
    swap
}

/// One finished shard reload: the chip's memory and the per-grant
/// latencies read off it once ([`grant_latencies`]) for both the health
/// gate and the disruption report.
struct StageRun {
    mem: SimMemory,
    lats: Vec<Option<u64>>,
}

/// Run one shard's reload and return it with one report per swap.
fn run_stage<F>(
    boot: &Program<PhysReg>,
    swaps: &[ImageSwap],
    cfg: &TopologyConfig,
    trace: &[FlowPacket],
    write_packet: &F,
    shard: usize,
) -> Result<(StageRun, Vec<SwapReport>), TopologyError>
where
    F: Fn(&mut SimMemory, u32, u32),
{
    let mut mem = shard_memory(cfg, trace, write_packet, shard);
    let (_, reports) = simulate_chip_reload(boot, swaps, &mut mem, cfg.chip_for(shard))
        .map_err(|error| TopologyError { chip: shard, error })?;
    let lats = grant_latencies(&mem);
    Ok((StageRun { mem, lats }, reports))
}

/// Health numbers the SLO gate consumes: whole-run drop rate and p99
/// latency over packets that *arrived* at or after `since` (service
/// resumption). Packets that arrived while the store was being rewritten
/// inevitably queue through the stall — that spike is reported in the
/// [`DisruptionReport`]'s `during` window, but gating on it would roll
/// back every update; the gate measures the new image's steady state.
fn stage_health(sub: &[FlowPacket], run: &StageRun, since: Option<u64>) -> (f64, u64) {
    let StageRun { mem, lats } = run;
    let offered = (mem.rx_dropped + mem.rx_grants.len() as u64).max(1);
    let drop_rate = mem.rx_dropped as f64 / offered as f64;
    let cut = since.unwrap_or(0);
    let mut post: Vec<u64> = Vec::new();
    let mut grant_j = 0usize;
    for (i, p) in sub.iter().enumerate() {
        match mem.rx_admissions.get(i) {
            None => break,
            Some(false) => {}
            Some(true) => {
                if let Some(l) = lats.get(grant_j).copied().flatten() {
                    if p.arrival >= cut {
                        post.push(l);
                    }
                }
                grant_j += 1;
            }
        }
    }
    (drop_rate, p99_of(post))
}

/// Update every chip to `new`, one at a time in shard order, gating each
/// stage on measured health and rolling back (then halting the rollout)
/// on any violation. See the module docs for the full protocol.
///
/// # Errors
///
/// Returns a [`TopologyError`] if any simulation hits an architectural
/// error ([`ixp_machine::validate`] should have ruled these out).
pub fn staged_rollout<F>(
    old: &Program<PhysReg>,
    new: &Program<PhysReg>,
    cfg: &RolloutConfig,
    trace: &[FlowPacket],
    write_packet: F,
) -> Result<RolloutReport, TopologyError>
where
    F: Fn(&mut SimMemory, u32, u32),
{
    let chips = cfg.topology.chips.max(1);
    // Pre-rollout baseline: the whole rack on the old image.
    let baseline = simulate_topology(old, &cfg.topology, trace, &write_packet)?;

    let mut stages: Vec<StageReport> = Vec::new();
    let mut outcome = RolloutOutcome::Committed;
    let mut any_disruption = false;
    for chip in 0..chips {
        let sub = sub_trace(trace, chips, chip);
        let stage = run_one_stage(
            old,
            new,
            cfg,
            trace,
            &sub,
            &write_packet,
            chip,
            &baseline.chips[chip],
        )?;
        if stage.swap.swap_cycle.is_some() {
            any_disruption = true;
        }
        let halted = match stage.outcome {
            StageOutcome::Committed => false,
            StageOutcome::RolledBack(reason) => {
                outcome = RolloutOutcome::RolledBack {
                    stage: chip,
                    reason,
                };
                true
            }
        };
        stages.push(stage);
        if halted {
            break;
        }
    }
    // Stages run strictly one at a time, so at most one chip is ever
    // inside a disruption window.
    let min_healthy_chips = if any_disruption {
        chips.saturating_sub(1)
    } else {
        chips
    };
    Ok(RolloutReport {
        outcome,
        stages,
        chips,
        min_healthy_chips,
    })
}

/// Decide one stage: run, gate, and if the SLO gate fails, re-run with a
/// scheduled rollback so the report reflects what the rollback actually
/// does to traffic.
#[allow(clippy::too_many_arguments)]
fn run_one_stage<F>(
    old: &Program<PhysReg>,
    new: &Program<PhysReg>,
    cfg: &RolloutConfig,
    trace: &[FlowPacket],
    sub: &[FlowPacket],
    write_packet: &F,
    chip: usize,
    baseline: &crate::topology::ChipShard,
) -> Result<StageReport, TopologyError>
where
    F: Fn(&mut SimMemory, u32, u32),
{
    let swap = stage_swap(new, cfg, chip);
    let (run, reports) = run_stage(old, &[swap], &cfg.topology, trace, write_packet, chip)?;
    let report = reports.into_iter().next().expect("one swap, one report");
    let baseline_drop_rate = baseline.dropped as f64 / baseline.offered.max(1) as f64;
    let baseline_p99 = baseline.latency.p99;

    let (candidate_drop_rate, candidate_p99) = stage_health(sub, &run, report.first_tx_cycle);
    let slo_violation = match report.outcome {
        SwapOutcome::RejectedChecksum { .. } => {
            return Ok(StageReport {
                chip,
                outcome: StageOutcome::RolledBack(RollbackReason::ChecksumRejected),
                disruption: disruption(sub, &run, &report),
                swap: report,
                baseline_drop_rate,
                baseline_p99,
                candidate_drop_rate,
                candidate_p99,
                // The old image never stopped: rollback is instantaneous.
                rollback_cycles: Some(0),
            });
        }
        SwapOutcome::RevertedWatchdog { at } => {
            let rollback_cycles = report.first_tx_cycle.map(|tx| tx - at);
            return Ok(StageReport {
                chip,
                outcome: StageOutcome::RolledBack(RollbackReason::WatchdogFired),
                disruption: disruption(sub, &run, &report),
                swap: report,
                baseline_drop_rate,
                baseline_p99,
                candidate_drop_rate,
                candidate_p99,
                rollback_cycles,
            });
        }
        // An unreached threshold means the shard's traffic ended before
        // the update was due: nothing changed, commit trivially.
        SwapOutcome::NotReached => None,
        SwapOutcome::Applied => {
            if candidate_drop_rate - baseline_drop_rate > cfg.slo.max_drop_delta {
                Some(RollbackReason::DropSlo)
            } else if candidate_p99 as f64 > baseline_p99.max(1) as f64 * cfg.slo.max_p99_factor {
                Some(RollbackReason::LatencySlo)
            } else {
                None
            }
        }
    };

    let Some(reason) = slo_violation else {
        return Ok(StageReport {
            chip,
            outcome: StageOutcome::Committed,
            disruption: disruption(sub, &run, &report),
            swap: report,
            baseline_drop_rate,
            baseline_p99,
            candidate_drop_rate,
            candidate_p99,
            rollback_cycles: None,
        });
    };

    // SLO violated: the honest stage record is a rollout + rollback, so
    // re-run with the swap back to the old image scheduled after the
    // observation window.
    let forward = stage_swap(new, cfg, chip);
    let back = ImageSwap {
        stall: cfg.stall,
        ..ImageSwap::new(cfg.swap_after + cfg.observe_packets, old.clone())
    }
    .with_watchdog(cfg.watchdog);
    let (rerun, reports2) = run_stage(
        old,
        &[forward, back],
        &cfg.topology,
        trace,
        write_packet,
        chip,
    )?;
    let mut it = reports2.into_iter();
    let fwd_report = it.next().expect("forward swap report");
    let back_report = it.next().expect("rollback swap report");
    let (rb_drop_rate, rb_p99) = stage_health(sub, &rerun, fwd_report.first_tx_cycle);
    Ok(StageReport {
        chip,
        outcome: StageOutcome::RolledBack(reason),
        disruption: disruption(sub, &rerun, &fwd_report),
        swap: fwd_report,
        baseline_drop_rate,
        baseline_p99,
        candidate_drop_rate: rb_drop_rate,
        candidate_p99: rb_p99,
        rollback_cycles: back_report.update_cycles(),
    })
}

/// Big-bang comparison run: every chip swaps to `new` at the same packet
/// threshold, with no health gating and no rollback. Used by the bench
/// harness to quantify what staging buys: the disruption windows of a
/// big-bang update genuinely overlap on the simulation clock, so
/// `min_healthy_chips` can reach 0.
///
/// # Errors
///
/// Returns a [`TopologyError`] as [`staged_rollout`] does.
pub fn big_bang_rollout<F>(
    old: &Program<PhysReg>,
    new: &Program<PhysReg>,
    cfg: &RolloutConfig,
    trace: &[FlowPacket],
    write_packet: F,
) -> Result<RolloutReport, TopologyError>
where
    F: Fn(&mut SimMemory, u32, u32),
{
    let chips = cfg.topology.chips.max(1);
    let mut stages: Vec<StageReport> = Vec::new();
    let mut windows: Vec<(u64, u64)> = Vec::new();
    for chip in 0..chips {
        let sub = sub_trace(trace, chips, chip);
        let swap = stage_swap(new, cfg, chip);
        let (run, reports) = run_stage(old, &[swap], &cfg.topology, trace, &write_packet, chip)?;
        let report = reports.into_iter().next().expect("one swap, one report");
        if let Some(sc) = report.swap_cycle {
            windows.push((sc, report.first_tx_cycle.unwrap_or(u64::MAX)));
        }
        let (drop_rate, p99) = stage_health(&sub, &run, report.first_tx_cycle);
        let outcome = match report.outcome {
            SwapOutcome::RejectedChecksum { .. } => {
                StageOutcome::RolledBack(RollbackReason::ChecksumRejected)
            }
            SwapOutcome::RevertedWatchdog { .. } => {
                StageOutcome::RolledBack(RollbackReason::WatchdogFired)
            }
            _ => StageOutcome::Committed,
        };
        stages.push(StageReport {
            chip,
            outcome,
            disruption: disruption(&sub, &run, &report),
            swap: report,
            baseline_drop_rate: 0.0,
            baseline_p99: 0,
            candidate_drop_rate: drop_rate,
            candidate_p99: p99,
            rollback_cycles: None,
        });
    }
    // Sweep the window endpoints for the deepest overlap: every chip
    // inside its [swap, recover) outage window at once is the big-bang
    // worst case.
    let mut max_overlap = 0usize;
    for &(start, _) in &windows {
        let depth = windows
            .iter()
            .filter(|&&(s, e)| s <= start && start < e)
            .count();
        max_overlap = max_overlap.max(depth);
    }
    let outcome = if stages
        .iter()
        .all(|s| matches!(s.outcome, StageOutcome::Committed))
    {
        RolloutOutcome::Committed
    } else {
        let (stage, reason) = stages
            .iter()
            .find_map(|s| match s.outcome {
                StageOutcome::RolledBack(r) => Some((s.chip, r)),
                StageOutcome::Committed => None,
            })
            .expect("some stage rolled back");
        RolloutOutcome::RolledBack { stage, reason }
    };
    Ok(RolloutReport {
        outcome,
        stages,
        chips,
        min_healthy_chips: chips - max_overlap,
    })
}

/// Convenience: the whole-rollout aggregate of a report's stage
/// disruptions, for benchmarking.
impl RolloutReport {
    /// Total packets aborted in flight across all stages.
    pub fn aborted_in_flight(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.disruption.aborted_in_flight)
            .sum()
    }

    /// Total distinct-flow disruption count across all stages (flows are
    /// shard-affine, so per-stage counts never double-count a flow).
    pub fn disrupted_flows(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.disruption.disrupted_flows)
            .sum()
    }

    /// Worst per-stage update latency (swap barrier to restored service).
    pub fn max_update_cycles(&self) -> u64 {
        self.stages
            .iter()
            .filter_map(|s| s.disruption.update_cycles)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packets::TrafficSpec;
    use crate::ChipConfig;
    use ixp_machine::{Addr, Bank, Block, MemSpace};

    fn r(bank: Bank, n: u8) -> PhysReg {
        PhysReg::new(bank, n)
    }

    fn forwarder(tag: u32) -> Program<PhysReg> {
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
                        dst: vec![r(Bank::Ld, 0)],
                    },
                    Instr::Imm {
                        dst: r(Bank::A, 2),
                        val: tag,
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

    fn trace(packets: usize) -> Vec<FlowPacket> {
        TrafficSpec {
            packets,
            flows: 64,
            mean_gap: 96,
            ..TrafficSpec::default()
        }
        .generate()
    }

    fn small_cfg(chips: usize) -> RolloutConfig {
        RolloutConfig {
            topology: TopologyConfig {
                chips,
                chip: ChipConfig {
                    engines: 2,
                    contexts: 2,
                    ..ChipConfig::default()
                },
                rx_capacity: 16,
                slots_per_class: 16,
                overrides: Vec::new(),
            },
            swap_after: 40,
            observe_packets: 60,
            stall: 512,
            watchdog: 20_000,
            ..RolloutConfig::default()
        }
    }

    fn wp(m: &mut SimMemory, a: u32, b: u32) {
        m.write(MemSpace::Sdram, a, b);
    }

    #[test]
    fn healthy_rollout_commits_every_stage() {
        let t = trace(600);
        let rep = staged_rollout(&forwarder(1), &forwarder(2), &small_cfg(3), &t, wp).unwrap();
        assert_eq!(rep.outcome, RolloutOutcome::Committed);
        assert_eq!(rep.stages.len(), 3);
        assert!(rep
            .stages
            .iter()
            .all(|s| s.outcome == StageOutcome::Committed));
        assert_eq!(rep.min_healthy_chips, 2, "staged: one chip down at a time");
        for s in &rep.stages {
            assert_eq!(s.swap.outcome, SwapOutcome::Applied);
            assert!(s.disruption.update_cycles.unwrap() >= 512);
            // Conservation inside every stage.
            assert_eq!(
                s.disruption.offered,
                s.disruption.delivered + s.disruption.dropped + s.disruption.aborted_in_flight
            );
        }
    }

    #[test]
    fn corrupt_image_halts_the_rollout_at_its_stage() {
        let t = trace(600);
        let mut cfg = small_cfg(3);
        cfg.faults.corrupt_stages = vec![1];
        let rep = staged_rollout(&forwarder(1), &forwarder(2), &cfg, &t, wp).unwrap();
        assert_eq!(
            rep.outcome,
            RolloutOutcome::RolledBack {
                stage: 1,
                reason: RollbackReason::ChecksumRejected
            }
        );
        assert_eq!(rep.stages.len(), 2, "chip 2 never started");
        assert_eq!(rep.stages[0].outcome, StageOutcome::Committed);
        assert_eq!(rep.stages[1].rollback_cycles, Some(0));
    }

    #[test]
    fn wedged_image_rolls_back_via_the_watchdog_and_recovers() {
        let t = trace(600);
        let mut cfg = small_cfg(2);
        cfg.faults.wedge_stages = vec![0];
        let rep = staged_rollout(&forwarder(1), &forwarder(2), &cfg, &t, wp).unwrap();
        let RolloutOutcome::RolledBack { stage, reason } = rep.outcome else {
            panic!("expected rollback, got {:?}", rep.outcome);
        };
        assert_eq!((stage, reason), (0, RollbackReason::WatchdogFired));
        let s = &rep.stages[0];
        assert!(s.rollback_cycles.is_some(), "service came back");
        // Rollback restored throughput: packets flowed after the revert.
        assert!(s.disruption.post.delivered > 0);
    }

    #[test]
    fn the_same_rollout_run_twice_gives_equal_reports() {
        // The baseline runs one host thread per chip; results are joined
        // in shard order, so scheduling cannot show in the report.
        let t = trace(500);
        let run = || {
            let mut cfg = small_cfg(2);
            cfg.faults.wedge_stages = vec![1];
            staged_rollout(&forwarder(1), &forwarder(2), &cfg, &t, wp).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn big_bang_overlaps_disruption_windows() {
        // A perfectly symmetric trace — one flow pinned to each shard,
        // identical arrival schedules — so every shard reaches its swap
        // threshold at the same wire time. (Generated traffic spreads
        // the thresholds by tens of thousands of cycles, which measures
        // trace skew, not the rollout policy.)
        let flows: Vec<u64> = (0..3)
            .map(|s| (0..).find(|&f| shard_of(f, 3) == s).unwrap())
            .collect();
        let mut t = Vec::new();
        for i in 0..200u64 {
            for &f in &flows {
                t.push(FlowPacket {
                    flow: f,
                    arrival: i * 200,
                    bytes: 64,
                });
            }
        }
        let mut cfg = small_cfg(3);
        // A long store rewrite makes the outage windows wide enough to
        // absorb residual jitter; the SLO gates are opened up so both
        // variants run to completion despite the stall-window drops.
        cfg.stall = 8_192;
        cfg.slo = HealthSlo {
            max_drop_delta: 1.0,
            max_p99_factor: 1_000.0,
        };
        let staged = staged_rollout(&forwarder(1), &forwarder(2), &cfg, &t, wp).unwrap();
        let bang = big_bang_rollout(&forwarder(1), &forwarder(2), &cfg, &t, wp).unwrap();
        assert_eq!(staged.outcome, RolloutOutcome::Committed);
        assert_eq!(bang.outcome, RolloutOutcome::Committed);
        assert_eq!(staged.min_healthy_chips, 2, "staged: one chip at a time");
        assert_eq!(
            bang.min_healthy_chips, 0,
            "a simultaneous update takes the whole rack through the outage"
        );
        assert!(
            bang.min_healthy_chips < staged.min_healthy_chips,
            "big-bang ({}) must be worse than staged ({})",
            bang.min_healthy_chips,
            staged.min_healthy_chips
        );
    }
}
