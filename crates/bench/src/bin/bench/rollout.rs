//! `bench rollout` (E17) — resilient live updates. Rolls a classifier
//! rule update across a sharded rack with the health-gated staged
//! controller, injects swap-path faults (wedged image, corrupt image),
//! and compares staged against big-bang availability on synchronized and
//! microburst traffic (`BENCH_rollout.json`). Every modeled number is
//! deterministic and gated exactly; the staging gain and rollback
//! recovery get absolute floors.

use bench::json::Json;
use bench::rollout::{reason_code, rolled_back_stage, rollout_json, run_rollout_bench};
use bench::table;
use ixp_sim::{RollbackReason, RolloutOutcome};

/// (chips in the rack, packets in the paced and microburst traces,
/// swap-threshold/observation window in transmitted packets).
const FULL: (usize, usize, u64) = (3, 30_000, 2_000);
const SMOKE: (usize, usize, u64) = (2, 8_000, 800);

pub fn run(smoke: bool, violations: &mut Vec<String>) -> Json {
    let (chips, packets, window) = if smoke { SMOKE } else { FULL };
    println!("Rollout: {chips} chips, {packets} packets, swap after / observe {window}\n");

    let bench = run_rollout_bench(chips, packets, window);
    println!(
        "{}",
        table(
            &[
                "scenario",
                "outcome",
                "stage",
                "min healthy",
                "delivered",
                "dropped",
                "aborted",
                "max update cyc",
            ],
            &bench
                .scenarios
                .iter()
                .map(|s| {
                    let r = &s.report;
                    vec![
                        s.id.to_string(),
                        format!("{}", reason_code(&r.outcome)),
                        format!("{}", rolled_back_stage(&r.outcome)),
                        format!("{}", r.min_healthy_chips),
                        format!(
                            "{}",
                            r.stages
                                .iter()
                                .map(|st| st.disruption.delivered)
                                .sum::<u64>()
                        ),
                        format!(
                            "{}",
                            r.stages.iter().map(|st| st.disruption.dropped).sum::<u64>()
                        ),
                        format!("{}", r.aborted_in_flight()),
                        format!("{}", r.max_update_cycles()),
                    ]
                })
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "compile: old {:.1} ms, new (warm) {:.1} ms; sim wall {:.0} ms; \
         staged keeps {} chips healthy vs big-bang {} on the synchronized trace",
        bench.old_compile_wall.as_secs_f64() * 1e3,
        bench.new_compile_wall.as_secs_f64() * 1e3,
        bench.sim_wall.as_secs_f64() * 1e3,
        bench.scenario("sync_staged").min_healthy_chips,
        bench.scenario("sync_bang").min_healthy_chips,
    );

    // The controller's contracts, whatever the scale.
    let mut check = |what: &str, ok: bool| {
        if !ok {
            violations.push(what.to_string());
        }
    };
    let healthy = bench.scenario("healthy");
    check(
        "healthy rollout commits every stage",
        healthy.outcome == RolloutOutcome::Committed && healthy.stages.len() == chips,
    );
    check(
        "healthy stages conserve packets",
        healthy.stages.iter().all(|s| {
            let d = &s.disruption;
            d.offered == d.delivered + d.dropped + d.aborted_in_flight
        }),
    );
    check(
        "a wedged image trips the watchdog at its stage",
        bench.scenario("wedge0").outcome
            == RolloutOutcome::RolledBack {
                stage: 0,
                reason: RollbackReason::WatchdogFired,
            },
    );
    let corrupt = bench.scenario("corrupt1");
    check(
        "a corrupt image is rejected at the barrier, after stage 0 committed",
        corrupt.outcome
            == RolloutOutcome::RolledBack {
                stage: 1,
                reason: RollbackReason::ChecksumRejected,
            },
    );
    check(
        "a checksum rejection never swaps",
        corrupt
            .stages
            .last()
            .is_some_and(|s| s.swap.swap_cycle.is_none() && s.rollback_cycles == Some(0)),
    );
    rollout_json(&bench)
}
