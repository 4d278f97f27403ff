//! The per-layer metrics of a traced run.
//!
//! Each function below fills the rows of one group of layers. A row keeps
//! its crate's name as prefix; rows a workload does not exercise read 0.
//! Host times are means per call over the sampled compiles (or medians
//! over passes), counts are exact.

use crate::edit_stage;
use crate::gen::{self, EditKind, RuleKind};
use crate::pins;
use crate::programs::{classifier_packet_writer, Checks, Prog};
use crate::sim_stage::{check_conservation, SimJob};
use crate::staged::{staged_compile, StagedCompile};
use crate::stats::{geomean, median, tail};
use crate::trace::Tracer;
use crate::workload::{Context, Inputs, Measured};
use ixp_machine::{MemSpace, PhysReg, Program};
use ixp_sim::{simulate_topology, RolloutOutcome, SimMode, SimResult};
use nova::{CompileConfig, Compiler, MemoryRecorder};
use nova_backend::SolvedAllocation;
use std::collections::BTreeMap;
use std::time::Instant;

/// The only hardware reference figure the repository holds: the paper's
/// full-chip AES throughput in Mb/s (§11).
const PAPER_AES_MBPS: f64 = 270.0;
/// How often the session is asked again before a staged-driver mismatch
/// counts: a compile that lands on one of a few equal-cost allocations
/// (AES does) must have produced the driver's one at least once.
const SESSION_RETRIES: usize = 8;

type Rows = BTreeMap<&'static str, f64>;

/// `VmHWM` of this process. Not an end-to-end metric: glibc's per-thread
/// arenas make it bimodal (146 or 199 MB on the same input, depending on
/// which arena a pass's worker threads land on), so it cannot gate.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean of `f` over `items` (0 when empty).
fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if items.is_empty() {
        0.0
    } else {
        items.iter().map(f).sum::<f64>() / items.len() as f64
    }
}

pub(crate) fn per_layer(
    cx: &Context,
    inputs: &Inputs,
    m: &Measured,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<Rows, String> {
    let mut rows = Rows::new();
    compile_layers(cx, inputs, m, tracer, checks, &mut rows);
    session_and_server_layers(cx, inputs, m, &mut rows);
    simulator_layers(cx, inputs, m, tracer, checks, &mut rows)?;
    rollout_layers(cx, inputs, m, checks, &mut rows)?;
    observer_cost(cx, inputs, &mut rows);

    let [traced, untraced] = &m.focus_walls;
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        median(traced) / median(untraced) - 1.0
    };
    rows.insert("bench.trace_overhead_share", overhead);
    rows.insert("bench.edit_tail_percentile", tail(&m.edit_us, 99.0).0);
    rows.insert("bench.edit_samples", m.edit_us.len() as f64);
    rows.insert("bench.peak_rss_mb", peak_rss_mb());
    rows.insert("bench.nproc", cx.pins.nproc as f64);
    rows.insert("bench.lanes", cx.pins.lanes as f64);
    Ok(rows)
}

/// Frontend, CPS, backend and ILP rows from the staged driver, run over
/// the compile stage's programs (cold), every first-seen structure of
/// the edit stream (cold) and a sample of its constant edits (warm,
/// re-finishing the structure's solve). Every staged program must equal
/// one the session produced for the same source.
fn compile_layers(
    cx: &Context,
    inputs: &Inputs,
    m: &Measured,
    tracer: &Tracer,
    checks: &mut Checks,
    rows: &mut Rows,
) {
    let mut staged: Vec<StagedCompile> = Vec::new();
    let (mut checked, mut valid) = (0u64, 0u64);
    let mut session_cold_us = 0.0;
    for (i, prog) in inputs.programs.iter().enumerate() {
        let source = prog.source();
        let start = Instant::now();
        let _ = Compiler::new(cx.config.clone()).compile_output(&source);
        session_cold_us += start.elapsed().as_secs_f64() * 1e6;
        let out = staged_compile(&source, &cx.config, None, tracer, 1_000_000 + i as u64);
        let mut known: Vec<Program<PhysReg>> = m.session_images[i].clone();
        let mut matches = |p: &Program<PhysReg>| {
            for _ in 0..SESSION_RETRIES {
                if known.contains(p) {
                    break;
                }
                if let Ok(again) = Compiler::new(cx.config.clone()).compile_output(&source) {
                    known.push(again.prog);
                }
            }
            known.contains(p)
        };
        let ok = out.as_ref().is_ok_and(|(p, _, _)| matches(p));
        checked += 1;
        valid += u64::from(ok);
        checks.check(ok, || match &out {
            Ok(_) => format!(
                "{}: the staged driver's program is none the session produces",
                prog.name()
            ),
            Err(e) => format!("{}: staged driver failed: {e}", prog.name()),
        });
        if let Ok((_, t, _)) = out {
            staged.push(t);
        }
    }
    let program_path_us: f64 = staged.iter().map(StagedCompile::path_us).sum();

    let mut solved_of: BTreeMap<Vec<RuleKind>, SolvedAllocation> = BTreeMap::new();
    let mut constant_left = cx.sizes.staged_constant_edits;
    for (i, edit) in inputs.stream.iter().enumerate() {
        let Some(swap) = &m.kept_pass.served[i].swap else {
            continue;
        };
        let structure = gen::structure_of(&edit.rules);
        let warm = solved_of.get(&structure);
        let sampled = match (warm, edit.kind) {
            (None, _) => true,
            (Some(_), EditKind::Constant) if constant_left > 0 => {
                constant_left -= 1;
                true
            }
            _ => false,
        };
        if !sampled {
            continue;
        }
        let out = staged_compile(&edit.source, &cx.config, warm, tracer, i as u64);
        let ok = out.as_ref().is_ok_and(|(p, _, _)| *p == swap.image);
        checked += 1;
        valid += u64::from(ok);
        checks.check(ok, || match &out {
            Ok(_) => format!("edit {i}: the staged driver's program differs from the served image"),
            Err(e) => format!("edit {i}: staged driver failed: {e}"),
        });
        if let Ok((_, t, solved)) = out {
            staged.push(t);
            if let Some(solved) = solved {
                solved_of.insert(structure, solved);
            }
        }
    }

    let all: Vec<&StagedCompile> = staged.iter().collect();
    let cold: Vec<&StagedCompile> = staged.iter().filter(|t| t.cold).collect();
    let warm: Vec<&StagedCompile> = staged.iter().filter(|t| !t.cold).collect();
    let sum = |items: &[&StagedCompile], f: &dyn Fn(&StagedCompile) -> f64| {
        items.iter().map(|t| f(t)).sum::<f64>()
    };
    rows.insert("nova-frontend.lex_us", mean_of(&all, |t| t.lex_us));
    rows.insert("nova-frontend.parse_us", mean_of(&all, |t| t.parse_us));
    rows.insert("nova-frontend.check_us", mean_of(&all, |t| t.check_us));
    rows.insert("nova-frontend.tokens", mean_of(&all, |t| t.tokens as f64));
    rows.insert(
        "nova-frontend.tokens_per_s",
        sum(&all, &|t| t.tokens as f64) / (sum(&all, &|t| t.lex_us) / 1e6).max(1e-9),
    );
    rows.insert("nova-cps.convert_us", mean_of(&all, |t| t.convert_us));
    rows.insert("nova-cps.optimize_us", mean_of(&all, |t| t.optimize_us));
    rows.insert("nova-cps.ssu_us", mean_of(&all, |t| t.ssu_us));
    rows.insert(
        "nova-cps.terms_after_opt",
        mean_of(&all, |t| t.terms_after_opt as f64),
    );
    rows.insert(
        "nova-cps.opt_rewrites",
        mean_of(&all, |t| t.opt_rewrites as f64),
    );
    rows.insert("nova-backend.select_us", mean_of(&all, |t| t.select_us));
    rows.insert("nova-backend.vinstrs", mean_of(&all, |t| t.vinstrs as f64));
    rows.insert("nova-backend.facts_us", mean_of(&cold, |t| t.facts_us));
    rows.insert(
        "nova-backend.build_model_us",
        mean_of(&cold, |t| t.build_model_us),
    );
    rows.insert(
        "nova-backend.model_vars",
        mean_of(&cold, |t| t.model_vars as f64),
    );
    rows.insert(
        "nova-backend.model_rows",
        mean_of(&cold, |t| t.model_rows as f64),
    );
    rows.insert(
        "nova-backend.model_nnz",
        mean_of(&cold, |t| t.model_nnz as f64),
    );
    rows.insert(
        "nova-backend.extract_color_us",
        mean_of(&cold, |t| t.extract_color_us),
    );
    rows.insert("nova-backend.verify_us", mean_of(&cold, |t| t.verify_us));
    rows.insert(
        "nova-backend.refinish_us",
        mean_of(&warm, |t| t.refinish_us),
    );
    rows.insert("nova-backend.moves", mean_of(&all, |t| t.moves as f64));
    rows.insert("nova-backend.spills", mean_of(&all, |t| t.spills as f64));
    rows.insert(
        "nova-backend.fallback_stage_max",
        inputs
            .images
            .iter()
            .map(|o| f64::from(o.alloc_quality.stage))
            .fold(0.0, f64::max),
    );
    rows.insert("ilp.presolve_us", mean_of(&cold, |t| t.presolve_us));
    rows.insert(
        "ilp.presolved_rows",
        mean_of(&cold, |t| t.presolved_rows as f64),
    );
    rows.insert("ilp.root_lp_us", mean_of(&cold, |t| t.root_lp_us));
    rows.insert("ilp.tree_us", mean_of(&cold, |t| t.tree_us));
    rows.insert("ilp.pivots", mean_of(&cold, |t| t.pivots as f64));
    rows.insert("ilp.nodes", mean_of(&cold, |t| t.nodes as f64));
    rows.insert(
        "ilp.pivots_per_s",
        sum(&cold, &|t| t.pivots as f64)
            / (sum(&cold, &|t| t.root_lp_us + t.tree_us) / 1e6).max(1e-9),
    );
    rows.insert(
        "ilp.refactorizations",
        mean_of(&cold, |t| t.refactorizations as f64),
    );
    let node_lps = sum(&cold, &|t| (t.warm_hits + t.warm_misses) as f64);
    rows.insert(
        "ilp.warm_hit_rate",
        sum(&cold, &|t| t.warm_hits as f64) / node_lps.max(1.0),
    );
    rows.insert(
        "ilp.proven_optimal_share",
        mean_of(&cold, |t| f64::from(u8::from(t.proven_optimal))),
    );
    rows.insert(
        "nova.unattributed_share",
        1.0 - program_path_us / session_cold_us.max(1e-9),
    );
    rows.insert(
        "bench.staged_split_valid",
        valid as f64 / (checked as f64).max(1.0),
    );
    for (prog, ms) in inputs.programs.iter().zip(&m.cold_ms) {
        let name = match prog {
            Prog::Aes => "nova.cold_ms.aes",
            Prog::Kasumi => "nova.cold_ms.kasumi",
            Prog::Nat => "nova.cold_ms.nat",
            Prog::Classifier(_) => "nova.cold_ms.cls",
        };
        rows.insert(name, *ms);
    }
}

/// Session caches, persistence and the serving layer, from the kept edit
/// pass plus two small probes (restart replay, image-hit round trips).
fn session_and_server_layers(cx: &Context, inputs: &Inputs, m: &Measured, rows: &mut Rows) {
    let (pass, pins) = (&m.kept_pass, cx.pins);
    let stats = &pass.stats;
    let structures = edit_stage::first_of_each_structure(&inputs.stream).len();
    rows.insert(
        "nova.warm_edit_us",
        median(&edit_stage::service_us_of(
            &inputs.stream,
            pass,
            EditKind::Constant,
        )),
    );
    rows.insert(
        "nova.cache.output_hit_rate",
        stats.output_hit_rate().unwrap_or(0.0),
    );
    rows.insert(
        "nova.cache.alloc_hit_rate",
        stats.alloc_hit_rate().unwrap_or(0.0),
    );
    rows.insert(
        "nova.cache.frontend_hit_rate",
        stats.frontend_hit_rate().unwrap_or(0.0),
    );
    rows.insert(
        "nova.alloc_solves_per_structure",
        stats.alloc_misses as f64 / structures as f64,
    );
    rows.insert(
        "nova.milp_edit_share",
        stats.alloc_misses as f64 / inputs.stream.len() as f64,
    );
    rows.insert("nova.refinish_fallbacks", stats.refinish_fallbacks as f64);
    rows.insert(
        "nova.persist.bytes_on_disk",
        edit_stage::dir_bytes(&pass.persist_dir) as f64,
    );
    let (replay_ms, replay_stats) = edit_stage::restart_replay(&inputs.stream, pass, pins);
    rows.insert("nova.persist.restart_replay_ms", replay_ms);
    rows.insert("nova.persist.disk_hits", replay_stats.disk_hits as f64);
    rows.insert(
        "nova.persist.disk_rejects",
        replay_stats.disk_rejects as f64,
    );
    let hits = edit_stage::image_hit_round_trips(
        &inputs.stream,
        pass,
        pins,
        if cx.args.smoke { 20 } else { 200 },
    );
    rows.insert(
        "nova.image_hit_us",
        median(&hits.iter().map(|h| h.1).collect::<Vec<_>>()),
    );
    rows.insert(
        "nova-server.hop_us",
        median(&hits.iter().map(|h| h.0 - h.1).collect::<Vec<_>>()),
    );

    let service: Vec<f64> = pass.served.iter().map(|s| s.service_us).collect();
    // Client-observed time that is neither the worker's compile nor the
    // client's own checksum: queueing plus the two channel hops.
    let queue_wait: Vec<f64> = pass
        .served
        .iter()
        .map(|s| (s.host_us - s.checksum_us - s.service_us).max(0.0))
        .collect();
    rows.insert("nova-server.service_us_p50", tail(&service, 50.0).1);
    rows.insert("nova-server.service_us_p99", tail(&service, 99.0).1);
    rows.insert("nova-server.queue_wait_us_p50", tail(&queue_wait, 50.0).1);
    rows.insert("nova-server.queue_wait_us_p99", tail(&queue_wait, 99.0).1);
    rows.insert(
        "nova-server.worker_busy_share",
        service.iter().sum::<f64>() / 1e6 / (pass.wall_s * pins.lanes as f64),
    );
    rows.insert("nova-server.sheds", pass.faults[0] as f64);
    rows.insert("nova-server.retries", pass.faults[1] as f64);
    rows.insert("nova-server.deadline_drops", pass.faults[2] as f64);
    rows.insert(
        "ixp-sim.image_checksum_us",
        median(
            &pass
                .served
                .iter()
                .map(|s| s.checksum_us)
                .collect::<Vec<_>>(),
        ),
    );
    rows.insert("ixp-sim.reload.simulate_ms", m.reload.simulate_s * 1e3);
    let update_cycles: Vec<f64> = m
        .reload
        .update_cycles
        .iter()
        .flatten()
        .map(|&c| c as f64)
        .collect();
    rows.insert("ixp-sim.reload.update_cycles_p50", median(&update_cycles));
}

/// Memory channels and the simulator core, from the sim stage's results,
/// plus the microburst (drop/backlog) run for topology jobs.
fn simulator_layers(
    cx: &Context,
    inputs: &Inputs,
    m: &Measured,
    tracer: &Tracer,
    checks: &mut Checks,
    rows: &mut Rows,
) -> Result<(), String> {
    let first = &m.sim_passes[0];
    let results: Vec<&SimResult> = first.iter().flat_map(|s| &s.results).collect();
    let total = |f: &dyn Fn(&SimResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let cycles = total(&|r| r.cycles);
    for (space, name) in [
        (MemSpace::Sram, "ixp-machine.channel.sram_occupancy"),
        (MemSpace::Sdram, "ixp-machine.channel.sdram_occupancy"),
        (MemSpace::Scratch, "ixp-machine.channel.scratch_occupancy"),
    ] {
        let busy = total(&|r| {
            r.channels
                .iter()
                .filter(|c| c.space == space)
                .map(|c| c.busy_cycles)
                .sum()
        });
        rows.insert(name, busy / cycles.max(1.0));
    }
    let refs = total(&|r| r.channels.iter().map(|c| c.reads + c.writes).sum());
    let waits = total(&|r| r.channels.iter().map(|c| c.wait_cycles).sum());
    rows.insert(
        "ixp-machine.channel.wait_cycles_per_ref",
        waits / refs.max(1.0),
    );

    let (instr, packets) = (total(&|r| r.instructions), total(&|r| r.packets));
    let per_pass = |f: &dyn Fn(&crate::sim_stage::SimSample) -> f64| {
        median(
            &m.sim_passes
                .iter()
                .map(|p| p.iter().map(f).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    let simulate_s = per_pass(&|s| s.wall_s - s.generate_s);
    rows.insert(
        "ixp-sim.chip.host_ns_per_instr",
        simulate_s * 1e9 / instr.max(1.0),
    );
    rows.insert(
        "ixp-sim.chip.host_ns_per_sim_cycle",
        simulate_s * 1e9 / cycles.max(1.0),
    );
    rows.insert("ixp-sim.chip.instr_per_packet", instr / packets.max(1.0));
    rows.insert(
        "ixp-sim.chip.swap_outs_per_packet",
        total(&|r| r.engines.iter().map(|e| e.swap_outs).sum()) / packets.max(1.0),
    );
    rows.insert(
        "ixp-sim.chip.engine_idle_share",
        total(&|r| r.engines.iter().map(|e| e.idle_cycles).sum())
            / total(&|r| r.cycles * r.engines.len() as u64).max(1.0),
    );
    rows.insert(
        "ixp-sim.chip.fastpath_vs_oracle_ratio",
        geomean(&m.oracle_ratios),
    );
    rows.insert(
        "ixp-sim.packets.generate_ms",
        per_pass(&|s| s.generate_s) * 1e3,
    );

    // The drop/backlog path: a microburst trace through the same rack.
    if let SimJob::Topology {
        image,
        write_packet,
        ..
    } = &inputs.sim_jobs[0].job
    {
        rows.insert("ixp-sim.topology.simulate_ms", simulate_s * 1e3);
        let trace = gen::microburst_traffic(cx.sizes.topology_packets / 2).generate();
        let cfg = pins::topology_config(cx.pins, SimMode::FastPath);
        let start = Instant::now();
        let res = tracer
            .span("ixp-sim.simulate_topology", 1, || {
                simulate_topology(image, &cfg, &trace, write_packet.as_ref())
            })
            .map_err(|e| format!("microburst run: {e}"))?;
        let wall_s = start.elapsed().as_secs_f64();
        check_conservation(&res, trace.len() as u64, checks);
        rows.insert(
            "ixp-sim.topology.burst_packets_per_host_s",
            res.delivered as f64 / wall_s,
        );
        rows.insert(
            "ixp-sim.topology.burst_drop_share",
            res.dropped as f64 / res.offered.max(1) as f64,
        );
    }
    // Full-chip AES against the paper's hardware figure, where AES ran.
    let aes_job = inputs.sim_jobs.iter().position(|j| {
        matches!(
            &j.job,
            SimJob::Chip {
                prog: Prog::Aes,
                ..
            }
        )
    });
    if let Some(i) = aes_job {
        rows.insert(
            "ixp-sim.model_error_vs_paper_aes",
            (first[i].mbps - PAPER_AES_MBPS) / PAPER_AES_MBPS,
        );
    }
    Ok(())
}

/// The rollout controller's use of the simulator. The baseline replay is
/// the old image over the whole trace — what `staged_rollout` runs first
/// and what every stage then replays for one chip.
fn rollout_layers(
    cx: &Context,
    inputs: &Inputs,
    m: &Measured,
    checks: &mut Checks,
    rows: &mut Rows,
) -> Result<(), String> {
    let cfg = pins::topology_config(cx.pins, SimMode::FastPath);
    let start = Instant::now();
    let baseline = simulate_topology(
        &inputs.rollout_old,
        &cfg,
        &inputs.rollout_trace,
        classifier_packet_writer(cx.args.seed),
    )
    .map_err(|e| format!("rollout baseline: {e}"))?;
    let baseline_ms = start.elapsed().as_secs_f64() * 1e3;
    check_conservation(&baseline, inputs.rollout_trace.len() as u64, checks);
    let rollout = &m.rollout_passes[0];
    let healthy_ms = median(
        &m.rollout_passes
            .iter()
            .map(|p| p.wall_s[0] * 1e3)
            .collect::<Vec<_>>(),
    );
    rows.insert("ixp-sim.rollout.baseline_ms", baseline_ms);
    rows.insert(
        "ixp-sim.rollout.stage_ms",
        (healthy_ms - baseline_ms).max(0.0) / rollout.reports[0].stages.len().max(1) as f64,
    );
    rows.insert(
        "ixp-sim.rollout.rollback_cycles",
        rollout
            .reports
            .iter()
            .flat_map(|r| &r.stages)
            .filter_map(|s| s.rollback_cycles)
            .max()
            .unwrap_or(0) as f64,
    );
    rows.insert(
        "ixp-sim.rollout.aborted_packets",
        rollout.aborted_packets() as f64,
    );
    rows.insert(
        "ixp-sim.rollout.min_healthy_chips",
        rollout
            .reports
            .iter()
            .filter(|r| r.outcome == RolloutOutcome::Committed)
            .map(|r| r.min_healthy_chips)
            .min()
            .unwrap_or(0) as f64,
    );
    Ok(())
}

/// Cost of watching: the compile stage's programs cold, with and without
/// a `MemoryRecorder` attached. Every end-to-end metric uses the
/// no-observer path.
fn observer_cost(cx: &Context, inputs: &Inputs, rows: &mut Rows) {
    let mut plain_ms = Vec::new();
    let mut watched_ms = Vec::new();
    let mut events = 0usize;
    for _ in 0..if cx.args.smoke { 1 } else { 3 } {
        for watched in [false, true] {
            let recorder = MemoryRecorder::new();
            let config = if watched {
                CompileConfig::builder()
                    .solver_threads(pins::SOLVER_THREADS)
                    .observer(recorder.clone())
                    .build()
            } else {
                cx.config.clone()
            };
            let start = Instant::now();
            for prog in &inputs.programs {
                let _ = Compiler::new(config.clone()).compile_output(&prog.source());
            }
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if watched {
                watched_ms.push(ms);
                events = recorder.events().len();
            } else {
                plain_ms.push(ms);
            }
        }
    }
    rows.insert(
        "nova-obs.recorder_overhead_share",
        median(&watched_ms) / median(&plain_ms) - 1.0,
    );
    rows.insert(
        "nova-obs.events_per_compile",
        events as f64 / inputs.programs.len() as f64,
    );
}
