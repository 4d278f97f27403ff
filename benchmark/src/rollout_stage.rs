//! Image rollouts across the rack: the simulator used the way the update
//! controller uses it — a baseline replay, then one replay per stage with
//! a swap barrier, checksum validation and the no-transmit watchdog.
//!
//! Four scenarios per pass, so a gain on bulk simulation that costs the
//! reload path shows: a healthy staged rollout, a wedged image at stage 0
//! (watchdog rollback), a corrupt image at stage 1 (checksum reject), and
//! the big-bang control.

use crate::pins::{self, Pins};
use crate::programs::{classifier_packet_writer, Checks};
use crate::trace::Tracer;
use ixp_machine::{PhysReg, Program};
use ixp_sim::{
    big_bang_rollout, staged_rollout, FlowPacket, RollbackReason, RolloutConfig, RolloutFaults,
    RolloutOutcome, RolloutReport, SimMode,
};
use std::time::Instant;

/// No-transmit watchdog window armed on every swap.
const WATCHDOG_CYCLES: u64 = 1 << 16;

/// One pass over the four scenarios.
pub struct RolloutPass {
    /// Host seconds per scenario: healthy, wedge, corrupt, big bang.
    pub wall_s: [f64; 4],
    pub reports: Vec<RolloutReport>,
}

impl RolloutPass {
    pub fn host_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    /// Packets granted to a context but never transmitted, over all four
    /// scenarios.
    pub fn aborted_packets(&self) -> u64 {
        self.reports
            .iter()
            .map(RolloutReport::aborted_in_flight)
            .sum()
    }

    /// Worst swap-to-first-packet latency in cycles over all scenarios.
    pub fn max_update_cycles(&self) -> u64 {
        self.reports
            .iter()
            .map(RolloutReport::max_update_cycles)
            .max()
            .unwrap_or(0)
    }
}

/// Each stage swaps after a quarter of its shard's even share of the
/// trace has been transmitted and a rollback observes for as long again,
/// so both windows fit every shard however Zipf skews the split.
fn config(pins: Pins, trace_len: usize, faults: RolloutFaults) -> RolloutConfig {
    let window = (trace_len / pins.lanes / 4) as u64;
    RolloutConfig {
        topology: pins::topology_config(pins, SimMode::FastPath),
        swap_after: window,
        observe_packets: window,
        watchdog: WATCHDOG_CYCLES,
        faults,
        ..RolloutConfig::default()
    }
}

/// Run the four scenarios of `old` → `new` over `trace`, checking each
/// outcome and packet conservation on every stage.
pub fn rollout_pass(
    old: &Program<PhysReg>,
    new: &Program<PhysReg>,
    trace: &[FlowPacket],
    seed: u64,
    pins: Pins,
    tracer: &Tracer,
    checks: &mut Checks,
) -> RolloutPass {
    // With one chip there is no stage 1 to corrupt; fault stage 0 then.
    let corrupt_stage = pins.lanes - 1;
    let scenarios: [(&str, RolloutFaults, bool, RolloutOutcome); 4] = [
        (
            "healthy",
            RolloutFaults::default(),
            true,
            RolloutOutcome::Committed,
        ),
        (
            "wedge",
            RolloutFaults {
                wedge_stages: vec![0],
                ..RolloutFaults::default()
            },
            true,
            RolloutOutcome::RolledBack {
                stage: 0,
                reason: RollbackReason::WatchdogFired,
            },
        ),
        (
            "corrupt",
            RolloutFaults {
                corrupt_stages: vec![corrupt_stage],
                ..RolloutFaults::default()
            },
            true,
            RolloutOutcome::RolledBack {
                stage: corrupt_stage,
                reason: RollbackReason::ChecksumRejected,
            },
        ),
        (
            "big_bang",
            RolloutFaults::default(),
            false,
            RolloutOutcome::Committed,
        ),
    ];
    let mut wall_s = [0.0; 4];
    let mut reports = Vec::with_capacity(4);
    for (slot, (name, faults, staged, expect)) in scenarios.into_iter().enumerate() {
        let cfg = config(pins, trace.len(), faults);
        let start = Instant::now();
        let report = if staged {
            tracer.span("ixp-sim.staged_rollout", slot as u64, || {
                staged_rollout(old, new, &cfg, trace, classifier_packet_writer(seed))
            })
        } else {
            tracer.span("ixp-sim.big_bang_rollout", slot as u64, || {
                big_bang_rollout(old, new, &cfg, trace, classifier_packet_writer(seed))
            })
        };
        wall_s[slot] = start.elapsed().as_secs_f64();
        let report = report.expect("validated images simulate without architectural errors");
        checks.check(report.outcome == expect, || {
            format!(
                "rollout {name}: outcome {:?}, expected {expect:?}",
                report.outcome
            )
        });
        for stage in &report.stages {
            let d = &stage.disruption;
            checks.check(
                d.offered == d.delivered + d.dropped + d.aborted_in_flight,
                || {
                    format!(
                    "rollout {name} chip {}: {} offered, {} delivered + {} dropped + {} aborted",
                    stage.chip, d.offered, d.delivered, d.dropped, d.aborted_in_flight
                )
                },
            );
        }
        reports.push(report);
    }
    RolloutPass { wall_s, reports }
}
