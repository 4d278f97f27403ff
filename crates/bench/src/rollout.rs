//! Staged-rollout benchmark harness (E17).
//!
//! Measures what the health-gated rollout controller
//! ([`ixp_sim::staged_rollout`]) buys over a naive rack-wide update:
//!
//! * **Healthy path** — a classifier rule update (variant 0 → variant 1,
//!   compiled in one warm session) rolled across a sharded rack under
//!   the canonical paced traffic, one chip at a time. Every modeled
//!   number — swap cycles, update latency, packets aborted in flight,
//!   disrupted flows, the `min_healthy_chips` floor — is
//!   bit-deterministic and gated exactly.
//! * **Fault injection** — a wedged image (applies, never transmits;
//!   caught by the no-transmit watchdog) and a corrupt image (rejected
//!   by checksum validation at the barrier), each halting the rollout
//!   at its stage with a measured rollback latency.
//! * **Staged vs big-bang** — on a synchronized trace (identical
//!   arrival schedules per shard) the disruption windows of a big-bang
//!   update genuinely overlap on the simulation clock and take the
//!   whole rack through the outage (`min_healthy_chips` = 0), while the
//!   staged controller keeps `chips - 1` serving throughout. The gap is
//!   gated as an absolute floor. A microburst variant reports the same
//!   comparison under bursty arrivals, where trace skew staggers the
//!   windows.

use crate::json::Json;
use crate::reload::RELOAD_SEED;
use crate::{microburst_spec, traffic_spec, traffic_topology, write_nat_packet};
use ixp_sim::{
    big_bang_rollout, shard_of, staged_rollout, FlowPacket, HealthSlo, RollbackReason,
    RolloutConfig, RolloutFaults, RolloutOutcome, RolloutReport, SimMode, StageOutcome,
    StageReport,
};
use nova::{CompileConfig, CompileOutput, Compiler};
use std::time::{Duration, Instant};
use workloads::{classifier_rules, classifier_source, CLASSIFIER_RULES};

/// No-transmit watchdog window armed on every swap.
pub const WATCHDOG_CYCLES: u64 = 1 << 16;

/// The canonical rollout configuration: the traffic topology's chips in
/// fast-path mode, checksum validation on, the watchdog armed, default
/// health SLOs. `window` is both the per-shard transmitted-packet
/// threshold arming each stage's swap and the observation window before
/// a rollback swaps back.
pub fn rollout_config(chips: usize, window: u64) -> RolloutConfig {
    RolloutConfig {
        topology: traffic_topology(chips, SimMode::FastPath),
        swap_after: window,
        observe_packets: window,
        watchdog: WATCHDOG_CYCLES,
        ..RolloutConfig::default()
    }
}

/// Compile the old and new classifier images (variants 0 and 1 of the
/// reload rule stream) in one session — the update is a warm,
/// solve-free recompile, exactly the live-update story of E16.
///
/// # Panics
///
/// Panics on compile errors: the generated classifiers are known-good.
pub fn classifier_images() -> (CompileOutput, CompileOutput, Duration, Duration) {
    let session = Compiler::new(CompileConfig::default());
    let compile = |variant: u64| -> (CompileOutput, Duration) {
        let rules = classifier_rules(RELOAD_SEED, variant, CLASSIFIER_RULES);
        let start = Instant::now();
        let out = session
            .compile_output(&classifier_source(&rules))
            .unwrap_or_else(|e| panic!("classifier variant {variant}: {e}"));
        (out, start.elapsed())
    };
    let (old, old_wall) = compile(0);
    let (new, new_wall) = compile(1);
    (old, new, old_wall, new_wall)
}

/// A synchronized trace: one flow pinned to each shard, identical
/// arrival schedules, so every shard reaches its swap threshold at the
/// same wire time. Generated traffic staggers the thresholds by tens of
/// thousands of cycles (Zipf/burst skew), which would measure trace
/// skew instead of the update policy — this trace isolates the policy.
pub fn synchronized_trace(chips: usize, per_shard: usize, gap: u64) -> Vec<FlowPacket> {
    let flows: Vec<u64> = (0..chips)
        .map(|s| (0..).find(|&f| shard_of(f, chips) == s).unwrap())
        .collect();
    let mut trace = Vec::with_capacity(chips * per_shard);
    for i in 0..per_shard as u64 {
        for &f in &flows {
            trace.push(FlowPacket {
                flow: f,
                arrival: i * gap,
                bytes: 64,
            });
        }
    }
    trace
}

/// One named rollout run of the bench.
#[derive(Debug)]
pub struct Scenario {
    /// Stable id the gate matches on (`healthy`, `wedge0`, ...).
    pub id: &'static str,
    /// The full deterministic rollout record.
    pub report: RolloutReport,
}

/// Everything the rollout bench measured.
#[derive(Debug)]
pub struct RolloutBench {
    /// Chips in the rack.
    pub chips: usize,
    /// Packets in the paced/microburst traces.
    pub packets: usize,
    /// Swap threshold and observation window, in transmitted packets.
    pub window: u64,
    /// Host wall of the cold (old image) compile.
    pub old_compile_wall: Duration,
    /// Host wall of the warm (new image) recompile.
    pub new_compile_wall: Duration,
    /// All scenario runs, in report order.
    pub scenarios: Vec<Scenario>,
    /// Host wall time of all simulation runs.
    pub sim_wall: Duration,
}

impl RolloutBench {
    /// Look up a scenario by id.
    ///
    /// # Panics
    ///
    /// Panics if the id was never run — harness breakage, not a result.
    pub fn scenario(&self, id: &str) -> &RolloutReport {
        &self
            .scenarios
            .iter()
            .find(|s| s.id == id)
            .unwrap_or_else(|| panic!("scenario {id} not run"))
            .report
    }
}

/// Run the rollout measurement over a rack of `chips` under `packets`
/// of traffic (see [`rollout_config`] for `window`). Every scenario is
/// deterministic; the only host-noisy outputs are the compile and
/// simulation walls.
///
/// # Panics
///
/// Panics if a compile or simulation fails — the images and traces are
/// known-good, so either is harness breakage rather than a measurement.
pub fn run_rollout_bench(chips: usize, packets: usize, window: u64) -> RolloutBench {
    let (old, new, old_compile_wall, new_compile_wall) = classifier_images();
    let paced = traffic_spec(packets).generate();
    let burst = microburst_spec(packets).generate();
    let synced = synchronized_trace(chips, 200, 200);

    let start = Instant::now();
    let staged = |cfg: &RolloutConfig, trace: &[FlowPacket]| -> RolloutReport {
        staged_rollout(&old.prog, &new.prog, cfg, trace, write_nat_packet)
            .expect("rollout simulation runs")
    };

    let mut scenarios = Vec::new();

    // Healthy staged rollout under paced traffic.
    let base_cfg = rollout_config(chips, window);
    scenarios.push(Scenario {
        id: "healthy",
        report: staged(&base_cfg, &paced),
    });

    // A wedged image on stage 0: watchdog rollback, measured recovery.
    let mut wedge_cfg = rollout_config(chips, window);
    wedge_cfg.faults = RolloutFaults {
        wedge_stages: vec![0],
        ..RolloutFaults::default()
    };
    scenarios.push(Scenario {
        id: "wedge0",
        report: staged(&wedge_cfg, &paced),
    });

    // A corrupt image on stage 1: rejected at the barrier, stage 0
    // already committed, stage 2 never starts.
    let mut corrupt_cfg = rollout_config(chips, window);
    corrupt_cfg.faults = RolloutFaults {
        corrupt_stages: vec![1],
        ..RolloutFaults::default()
    };
    scenarios.push(Scenario {
        id: "corrupt1",
        report: staged(&corrupt_cfg, &paced),
    });

    // Microburst traffic: line-rate bursts slam one shard's shallow
    // buffer at a time; the SLO gates are opened so drop-rate deltas
    // from burst phasing don't roll the comparison back.
    let mut burst_cfg = rollout_config(chips, window);
    burst_cfg.slo = HealthSlo {
        max_drop_delta: 0.25,
        max_p99_factor: 8.0,
    };
    scenarios.push(Scenario {
        id: "burst_staged",
        report: staged(&burst_cfg, &burst),
    });
    scenarios.push(Scenario {
        id: "burst_bang",
        report: big_bang_rollout(&old.prog, &new.prog, &burst_cfg, &burst, write_nat_packet)
            .expect("rollout simulation runs"),
    });

    // Synchronized trace: the staged-vs-big-bang availability story,
    // with a long store rewrite widening the outage windows and the
    // gates opened (the tiny trace makes rate deltas meaningless).
    let mut sync_cfg = rollout_config(chips, window);
    sync_cfg.swap_after = 40;
    sync_cfg.observe_packets = 60;
    sync_cfg.stall = 8_192;
    sync_cfg.slo = HealthSlo {
        max_drop_delta: 1.0,
        max_p99_factor: 1_000.0,
    };
    scenarios.push(Scenario {
        id: "sync_staged",
        report: staged(&sync_cfg, &synced),
    });
    scenarios.push(Scenario {
        id: "sync_bang",
        report: big_bang_rollout(&old.prog, &new.prog, &sync_cfg, &synced, write_nat_packet)
            .expect("rollout simulation runs"),
    });

    let sim_wall = start.elapsed();

    RolloutBench {
        chips,
        packets,
        window,
        old_compile_wall,
        new_compile_wall,
        scenarios,
        sim_wall,
    }
}

/// Numeric code for a rollback reason (0 = no rollback) — the gate
/// compares outcomes as exact numbers.
pub fn reason_code(outcome: &RolloutOutcome) -> i64 {
    match outcome {
        RolloutOutcome::Committed => 0,
        RolloutOutcome::RolledBack { reason, .. } => match reason {
            RollbackReason::ChecksumRejected => 1,
            RollbackReason::WatchdogFired => 2,
            RollbackReason::DropSlo => 3,
            RollbackReason::LatencySlo => 4,
        },
    }
}

/// The stage a rollout halted at, `-1` when it committed.
pub fn rolled_back_stage(outcome: &RolloutOutcome) -> i64 {
    match outcome {
        RolloutOutcome::Committed => -1,
        RolloutOutcome::RolledBack { stage, .. } => *stage as i64,
    }
}

fn opt_cycle(v: Option<u64>) -> Json {
    match v {
        Some(c) => Json::int(c as usize),
        None => Json::Num(-1.0),
    }
}

fn stage_json(s: &StageReport) -> Json {
    let outcome = match s.outcome {
        StageOutcome::Committed => "committed",
        StageOutcome::RolledBack(RollbackReason::ChecksumRejected) => "checksum-rejected",
        StageOutcome::RolledBack(RollbackReason::WatchdogFired) => "watchdog-fired",
        StageOutcome::RolledBack(RollbackReason::DropSlo) => "drop-slo",
        StageOutcome::RolledBack(RollbackReason::LatencySlo) => "latency-slo",
    };
    let d = &s.disruption;
    Json::obj([
        ("chip", Json::int(s.chip)),
        ("outcome", Json::str(outcome)),
        ("swap_cycle", opt_cycle(s.swap.swap_cycle)),
        ("first_tx_cycle", opt_cycle(s.swap.first_tx_cycle)),
        ("update_cycles", opt_cycle(d.update_cycles)),
        ("rollback_cycles", opt_cycle(s.rollback_cycles)),
        ("offered", Json::int(d.offered as usize)),
        ("delivered", Json::int(d.delivered as usize)),
        ("dropped", Json::int(d.dropped as usize)),
        ("aborted_in_flight", Json::int(d.aborted_in_flight as usize)),
        ("disrupted_flows", Json::int(d.disrupted_flows as usize)),
        ("pre_delivered", Json::int(d.pre.delivered as usize)),
        ("during_delivered", Json::int(d.during.delivered as usize)),
        ("post_delivered", Json::int(d.post.delivered as usize)),
        ("post_p99", Json::int(d.post.latency.p99 as usize)),
        ("baseline_p99", Json::int(s.baseline_p99 as usize)),
        ("candidate_p99", Json::int(s.candidate_p99 as usize)),
    ])
}

fn scenario_json(s: &Scenario) -> Json {
    let r = &s.report;
    let sum = |f: &dyn Fn(&StageReport) -> u64| -> usize {
        r.stages.iter().map(|st| f(st) as usize).sum()
    };
    // Post-revert recovery of the halting stage: packets delivered after
    // service resumed on the rolled-back chip (`-1` when no stage rolled
    // back, `0` would mean a rollback that never came back — gated).
    let recovered = match r.outcome {
        RolloutOutcome::Committed => Json::Num(-1.0),
        RolloutOutcome::RolledBack { stage, .. } => {
            let st = r.stages.iter().find(|st| st.chip == stage);
            Json::int(st.map_or(0, |st| st.disruption.post.delivered as usize))
        }
    };
    Json::obj([
        ("id", Json::str(s.id)),
        ("chips", Json::int(r.chips)),
        ("stages_run", Json::int(r.stages.len())),
        ("outcome_code", Json::Num(reason_code(&r.outcome) as f64)),
        (
            "rolled_back_stage",
            Json::Num(rolled_back_stage(&r.outcome) as f64),
        ),
        ("min_healthy_chips", Json::int(r.min_healthy_chips)),
        ("offered", Json::int(sum(&|st| st.disruption.offered))),
        ("delivered", Json::int(sum(&|st| st.disruption.delivered))),
        ("dropped", Json::int(sum(&|st| st.disruption.dropped))),
        (
            "aborted_in_flight",
            Json::int(r.aborted_in_flight() as usize),
        ),
        ("disrupted_flows", Json::int(r.disrupted_flows() as usize)),
        (
            "max_update_cycles",
            Json::int(r.max_update_cycles() as usize),
        ),
        ("rollback_recovered", recovered),
        (
            "stages",
            Json::Arr(r.stages.iter().map(stage_json).collect()),
        ),
    ])
}

/// Render the whole bench as the `BENCH_rollout.json` document.
pub fn rollout_json(b: &RolloutBench) -> Json {
    let staged = b.scenario("sync_staged").min_healthy_chips;
    let bang = b.scenario("sync_bang").min_healthy_chips;
    Json::obj([
        ("bench", Json::str("rollout")),
        (
            "config",
            Json::obj([
                ("chips", Json::int(b.chips)),
                ("packets", Json::int(b.packets)),
                ("swap_after", Json::int(b.window as usize)),
                ("observe_packets", Json::int(b.window as usize)),
                ("watchdog", Json::int(WATCHDOG_CYCLES as usize)),
            ]),
        ),
        (
            "scenarios",
            Json::Arr(b.scenarios.iter().map(scenario_json).collect()),
        ),
        (
            "comparison",
            Json::obj([
                ("staged_min_healthy", Json::int(staged)),
                ("bang_min_healthy", Json::int(bang)),
                ("staging_gain", Json::Num(staged as f64 - bang as f64)),
            ]),
        ),
        (
            "old_compile_ms",
            Json::Num(b.old_compile_wall.as_secs_f64() * 1e3),
        ),
        (
            "new_compile_ms",
            Json::Num(b.new_compile_wall.as_secs_f64() * 1e3),
        ),
        ("sim_wall_ms", Json::Num(b.sim_wall.as_secs_f64() * 1e3)),
    ])
}
