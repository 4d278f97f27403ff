//! The metric and workload names of the benchmark — the one list
//! `BENCHMARK.json`, the README tables and every emitted result line must
//! agree with. Later changes cite these names and leave them alone.

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees, with the share of the parent's
/// median by which it may get worse before a change counts as a
/// regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer. No bound: these explain, they do not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// The four stages of the pipeline every workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Compile,
    Edit,
    Sim,
    Rollout,
}

/// One workload: the name results are cited by, the stage it stresses
/// (which gets most of the time budget), and the one-line reason it
/// exists.
pub struct WorkloadDecl {
    pub name: &'static str,
    pub focus: Stage,
    pub why: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Bounds follow the steadiness measured on the 2-vCPU (shared, noisy)
/// host the workloads were sized on, at three times the spread between
/// quartiles of ten runs on ten seeds, capped at the 25 % ceiling: the
/// two-lane edit metrics and the rollout replay spread 8-12 % in a bad
/// hour, so they get 25 %; single-threaded
/// compile and the simulation rates spread 5-6 % and get 20 %. Modeled
/// metrics and counts are exact for a given seed; their bounds only have
/// to absorb the seed-to-seed variation of the generated packet contents.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("cold_compile_ms", "ms", Better::Lower, 0.20),
    e2e("code_words", "instr", Better::Lower, 0.02),
    e2e("modeled_mbps", "Mb/s", Better::Higher, 0.05),
    e2e("edit_to_first_packet_p50_us", "us", Better::Lower, 0.25),
    e2e("edit_to_first_packet_p99_us", "us", Better::Lower, 0.25),
    e2e("edits_per_s", "1/s", Better::Higher, 0.25),
    e2e("modeled_update_us", "us", Better::Lower, 0.02),
    e2e("sim_packets_per_host_s", "1/s", Better::Higher, 0.20),
    e2e("sim_instr_per_host_s", "1/s", Better::Higher, 0.20),
    e2e("modeled_latency_p99_cycles", "cycles", Better::Lower, 0.06),
    e2e("rollout_host_s", "s", Better::Lower, 0.25),
    e2e("rollout_delivered_share", "share", Better::Higher, 0.005),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    layer("nova-frontend.lex_us", "us", Lower),
    layer("nova-frontend.parse_us", "us", Lower),
    layer("nova-frontend.check_us", "us", Lower),
    layer("nova-frontend.tokens", "count", Lower),
    layer("nova-frontend.tokens_per_s", "1/s", Higher),
    layer("nova-cps.convert_us", "us", Lower),
    layer("nova-cps.optimize_us", "us", Lower),
    layer("nova-cps.ssu_us", "us", Lower),
    layer("nova-cps.terms_after_opt", "count", Lower),
    layer("nova-cps.opt_rewrites", "count", Higher),
    layer("nova-backend.select_us", "us", Lower),
    layer("nova-backend.vinstrs", "count", Lower),
    layer("nova-backend.facts_us", "us", Lower),
    layer("nova-backend.build_model_us", "us", Lower),
    layer("nova-backend.model_vars", "count", Lower),
    layer("nova-backend.model_rows", "count", Lower),
    layer("nova-backend.model_nnz", "count", Lower),
    layer("nova-backend.extract_color_us", "us", Lower),
    layer("nova-backend.verify_us", "us", Lower),
    layer("nova-backend.refinish_us", "us", Lower),
    layer("nova-backend.moves", "count", Lower),
    layer("nova-backend.spills", "count", Lower),
    layer("nova-backend.fallback_stage_max", "count", Lower),
    layer("ilp.presolve_us", "us", Lower),
    layer("ilp.presolved_rows", "count", Higher),
    layer("ilp.root_lp_us", "us", Lower),
    layer("ilp.tree_us", "us", Lower),
    layer("ilp.pivots", "count", Lower),
    layer("ilp.nodes", "count", Lower),
    layer("ilp.pivots_per_s", "1/s", Higher),
    layer("ilp.refactorizations", "count", Lower),
    layer("ilp.warm_hit_rate", "share", Higher),
    layer("ilp.proven_optimal_share", "share", Higher),
    layer("nova.cold_ms.aes", "ms", Lower),
    layer("nova.cold_ms.kasumi", "ms", Lower),
    layer("nova.cold_ms.nat", "ms", Lower),
    layer("nova.cold_ms.cls", "ms", Lower),
    layer("nova.warm_edit_us", "us", Lower),
    layer("nova.image_hit_us", "us", Lower),
    layer("nova.cache.output_hit_rate", "share", Higher),
    layer("nova.cache.alloc_hit_rate", "share", Higher),
    layer("nova.cache.frontend_hit_rate", "share", Higher),
    layer("nova.alloc_solves_per_structure", "ratio", Lower),
    layer("nova.milp_edit_share", "share", Lower),
    layer("nova.refinish_fallbacks", "count", Lower),
    layer("nova.persist.disk_hits", "count", Higher),
    layer("nova.persist.disk_rejects", "count", Lower),
    layer("nova.persist.bytes_on_disk", "bytes", Lower),
    layer("nova.persist.restart_replay_ms", "ms", Lower),
    layer("nova.unattributed_share", "share", Lower),
    layer("nova-server.service_us_p50", "us", Lower),
    layer("nova-server.service_us_p99", "us", Lower),
    layer("nova-server.queue_wait_us_p50", "us", Lower),
    layer("nova-server.queue_wait_us_p99", "us", Lower),
    layer("nova-server.hop_us", "us", Lower),
    layer("nova-server.worker_busy_share", "share", Higher),
    layer("nova-server.sheds", "count", Lower),
    layer("nova-server.retries", "count", Lower),
    layer("nova-server.deadline_drops", "count", Lower),
    layer("ixp-machine.channel.sram_occupancy", "share", Lower),
    layer("ixp-machine.channel.sdram_occupancy", "share", Lower),
    layer("ixp-machine.channel.scratch_occupancy", "share", Lower),
    layer("ixp-machine.channel.wait_cycles_per_ref", "cycles", Lower),
    layer("ixp-sim.packets.generate_ms", "ms", Lower),
    layer("ixp-sim.topology.simulate_ms", "ms", Lower),
    layer("ixp-sim.topology.burst_packets_per_host_s", "1/s", Higher),
    layer("ixp-sim.topology.burst_drop_share", "share", Lower),
    layer("ixp-sim.chip.host_ns_per_instr", "ns", Lower),
    layer("ixp-sim.chip.host_ns_per_sim_cycle", "ns", Lower),
    layer("ixp-sim.chip.instr_per_packet", "instr", Lower),
    layer("ixp-sim.chip.swap_outs_per_packet", "count", Lower),
    layer("ixp-sim.chip.engine_idle_share", "share", Lower),
    layer("ixp-sim.chip.fastpath_vs_oracle_ratio", "ratio", Lower),
    layer("ixp-sim.image_checksum_us", "us", Lower),
    layer("ixp-sim.reload.simulate_ms", "ms", Lower),
    layer("ixp-sim.reload.update_cycles_p50", "cycles", Lower),
    layer("ixp-sim.rollout.baseline_ms", "ms", Lower),
    layer("ixp-sim.rollout.stage_ms", "ms", Lower),
    layer("ixp-sim.rollout.rollback_cycles", "cycles", Lower),
    layer("ixp-sim.rollout.aborted_packets", "count", Lower),
    layer("ixp-sim.rollout.min_healthy_chips", "count", Higher),
    layer("ixp-sim.model_error_vs_paper_aes", "share", Higher),
    layer("nova-obs.recorder_overhead_share", "share", Lower),
    layer("nova-obs.events_per_compile", "count", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.staged_split_valid", "share", Higher),
    layer("bench.edit_tail_percentile", "pct", Higher),
    layer("bench.edit_samples", "count", Higher),
    layer("bench.peak_rss_mb", "MB", Lower),
    layer("bench.nproc", "count", Higher),
    layer("bench.lanes", "count", Higher),
];

/// The pins every workload runs under, recorded in each `why` because
/// `BENCHMARK.json` has no other free text (see `pins.rs` for reasons).
pub const PINS_NOTE: &str =
    "[2 workers=clients=chips, 1 host thread/chip, 1 solver thread; sized at nproc 2]";

pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "cold_compile",
        focus: Stage::Compile,
        why: "AES, Kasumi, NAT, 16-rule classifier via fresh sessions (paper Fig. 7): ILP ~90 % of time, caches idle",
    },
    WorkloadDecl {
        name: "edit_stream",
        focus: Stage::Edit,
        why: "2000 rule edits (70 % constant, 20 % revert, 10 % structural) to a persisted server: warm path, MILP under contention",
    },
    WorkloadDecl {
        name: "bulk_sim_nat",
        focus: Stage::Sim,
        why: "NAT over 400 k paced Zipf-flow packets on the sharded rack: memory-bound, idle-skip, traffic generation",
    },
    WorkloadDecl {
        name: "bulk_sim_aes",
        focus: Stage::Sim,
        why: "AES over 24 k pre-queued packets on one saturated 6x4 chip: compute-bound, all host time is the interpreter",
    },
    WorkloadDecl {
        name: "rollout",
        focus: Stage::Rollout,
        why: "classifier update across the rack under 60 k packets: healthy, wedged, corrupt, big-bang; replay per stage, watchdog",
    },
];

/// Render the `BENCHMARK.json` document these tables describe.
pub fn benchmark_json(run_seconds: u32) -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    Json::obj([
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", s(w.name)),
                            ("why", s(&format!("{} {PINS_NOTE}", w.why))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
