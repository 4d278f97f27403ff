//! Property-based contracts of the staged-rollout controller.
//!
//! The controller's promise is that live updates are *safe to automate*:
//! whatever swap-path faults fire, a rollout always converges to a
//! definite verdict (committed everywhere, or halted at one stage with
//! the rack back on the old image), never loses a packet from its
//! accounting, stays identical to an undisturbed rack when the update
//! never fires, and reports equal results every time it is run. Each
//! property here drives random fault schedules and swap
//! points through the real multi-chip simulation.

use bench::{traffic_spec, traffic_topology, write_nat_packet};
use ixp_machine::{PhysReg, Program};
use ixp_sim::{
    shard_of, simulate_topology, staged_rollout, FlowPacket, RollbackReason, RolloutConfig,
    RolloutFaults, RolloutOutcome, RolloutReport, SimMode, StageOutcome,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Chips in the property rack: the smallest topology where "one stage
/// at a time" and "halt at stage k" are distinguishable.
const CHIPS: usize = 2;
/// Packets in the shared trace (small enough for many cases).
const PACKETS: usize = 3_000;

/// The old/new classifier images, compiled once for every case.
fn images() -> &'static (Program<PhysReg>, Program<PhysReg>) {
    static IMAGES: OnceLock<(Program<PhysReg>, Program<PhysReg>)> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let (old, new, _, _) = bench::rollout::classifier_images();
        (old.prog, new.prog)
    })
}

/// The shared traffic trace, generated once.
fn trace() -> &'static [FlowPacket] {
    static TRACE: OnceLock<Vec<FlowPacket>> = OnceLock::new();
    TRACE.get_or_init(|| traffic_spec(PACKETS).generate())
}

fn config(swap_after: u64, observe: u64, faults: RolloutFaults) -> RolloutConfig {
    RolloutConfig {
        topology: traffic_topology(CHIPS, SimMode::FastPath),
        swap_after,
        observe_packets: observe,
        faults,
        ..RolloutConfig::default()
    }
}

fn run(cfg: &RolloutConfig) -> RolloutReport {
    let (old, new) = images();
    staged_rollout(old, new, cfg, trace(), write_nat_packet).expect("rollout simulation runs")
}

/// A random fault schedule over the rack's stages.
fn faults_strategy() -> impl Strategy<Value = RolloutFaults> {
    let stage_set = proptest::collection::vec(0usize..CHIPS, 0..=CHIPS);
    (stage_set.clone(), stage_set).prop_map(|(corrupt, wedge)| RolloutFaults {
        corrupt_stages: corrupt,
        wedge_stages: wedge,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any fault schedule × any swap point converges to a definite
    /// verdict with coherent accounting: committed rollouts ran every
    /// stage, halted rollouts stopped exactly at the failed stage, and
    /// every stage conserves packets (`offered = delivered + dropped +
    /// aborted_in_flight`).
    #[test]
    fn any_fault_schedule_converges_with_conservation(
        faults in faults_strategy(),
        swap_after in prop_oneof![Just(200u64), Just(700), Just(1100)],
        observe in prop_oneof![Just(300u64), Just(800)],
    ) {
        let report = run(&config(swap_after, observe, faults.clone()));
        match report.outcome {
            RolloutOutcome::Committed => {
                prop_assert_eq!(report.stages.len(), CHIPS);
                for s in &report.stages {
                    prop_assert_eq!(s.outcome, StageOutcome::Committed);
                }
            }
            RolloutOutcome::RolledBack { stage, reason } => {
                prop_assert!(stage < CHIPS);
                prop_assert_eq!(report.stages.len(), stage + 1);
                let last = report.stages.last().unwrap();
                prop_assert_eq!(last.outcome, StageOutcome::RolledBack(reason));
                // A checksum rejection never applies the image, so the
                // swap must not have fired; a watchdog revert must have.
                match reason {
                    RollbackReason::ChecksumRejected => {
                        prop_assert!(last.swap.swap_cycle.is_none());
                        prop_assert_eq!(last.rollback_cycles, Some(0));
                    }
                    RollbackReason::WatchdogFired => {
                        prop_assert!(last.swap.swap_cycle.is_some());
                    }
                    _ => {}
                }
            }
        }
        for s in &report.stages {
            let d = &s.disruption;
            prop_assert_eq!(
                d.offered,
                d.delivered + d.dropped + d.aborted_in_flight,
                "stage {} leaks packets from its accounting", s.chip
            );
            prop_assert!(s.chip < CHIPS);
        }
        // An injected fault on a reached stage can never commit rack-wide.
        let reached = |stage: usize| {
            report.stages.get(stage).is_some_and(|s| {
                s.swap.swap_cycle.is_some()
                    || matches!(
                        s.outcome,
                        StageOutcome::RolledBack(RollbackReason::ChecksumRejected)
                    )
            })
        };
        let faulted = (0..CHIPS).any(|c| {
            (faults.corrupt_stages.contains(&c) || faults.wedge_stages.contains(&c)) && reached(c)
        });
        if faulted {
            prop_assert!(matches!(report.outcome, RolloutOutcome::RolledBack { .. }));
        }
    }

    /// A rollout whose swap threshold lies beyond the trace changes
    /// nothing: every stage commits trivially and each chip's traffic is
    /// identical to an undisturbed `simulate_topology` run of the old
    /// image — the controller adds zero disturbance of its own.
    #[test]
    fn unreached_swap_is_traffic_identical_to_no_rollout(observe in prop_oneof![Just(100u64), Just(500)]) {
        let cfg = config(u64::MAX, observe, RolloutFaults::default());
        let report = run(&cfg);
        prop_assert_eq!(report.outcome, RolloutOutcome::Committed);
        prop_assert_eq!(report.min_healthy_chips, CHIPS);

        let (old, _) = images();
        let plain = simulate_topology(old, &cfg.topology, trace(), write_nat_packet)
            .expect("plain topology runs");
        for s in &report.stages {
            let shard = &plain.chips[s.chip];
            prop_assert!(s.swap.swap_cycle.is_none());
            prop_assert_eq!(s.disruption.offered, shard.offered);
            prop_assert_eq!(s.disruption.delivered, shard.delivered);
            prop_assert_eq!(s.disruption.dropped, shard.dropped);
            prop_assert_eq!(s.disruption.aborted_in_flight, 0);
            prop_assert_eq!(s.disruption.disrupted_flows, 0);
        }
    }

    /// Rollout reports are a pure function of (images, config, trace):
    /// the baseline's one-host-thread-per-chip scheduling must never leak
    /// into a single bit, so the same config run twice gives equal
    /// reports.
    #[test]
    fn the_same_config_run_twice_gives_equal_reports(
        faults in faults_strategy(),
        swap_after in prop_oneof![Just(400u64), Just(900)],
    ) {
        let cfg = config(swap_after, 500, faults);
        prop_assert_eq!(run(&cfg), run(&cfg));
    }
}

/// The flow-hash balancer and the controller agree on stage ownership:
/// every packet a stage accounts for belongs to that stage's shard.
#[test]
fn stage_accounting_matches_the_balancer_shards() {
    let report = run(&config(500, 500, RolloutFaults::default()));
    for s in &report.stages {
        let expected: u64 = trace()
            .iter()
            .filter(|p| shard_of(p.flow, CHIPS) == s.chip)
            .count() as u64;
        assert_eq!(
            s.disruption.offered, expected,
            "stage {} accounts for packets outside its shard",
            s.chip
        );
    }
}
