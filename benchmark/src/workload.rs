//! The five workloads and the one pipeline they all run.
//!
//! The system is one pipeline — compile a program, serve edits to it,
//! forward packets with it, roll a new image out — and a user sees every
//! end-to-end metric on whatever they run. So every workload runs all
//! four stages on its own programs and traffic and reports every metric;
//! what distinguishes the workloads is their inputs and the stage that
//! gets most of the `--seconds` budget ([`FOCUS_SHARE`]), which is the
//! stage the workload exists to stress.
//!
//! Each stage repeats identical passes until its share of the budget is
//! used; host-time metrics are medians over the passes, modeled metrics
//! and counts are exact.

use crate::edit_stage::{self, ReloadOutcome, StreamPass};
use crate::gen::{self, Edit, Rng};
use crate::layers;
use crate::metrics::{self, Stage, WorkloadDecl};
use crate::pins::{self, Pins};
use crate::programs::{classifier_packet_writer, nat_packet_writer, Checks, Prog};
use crate::rollout_stage::{self, RolloutPass};
use crate::sim_stage::{PreparedJob, SimJob, SimSample, WritePacket};
use crate::stats::{geomean, median, tail};
use crate::trace::Tracer;
use ixp_machine::timing::CLOCK_HZ;
use ixp_machine::{PhysReg, Program};
use ixp_sim::FlowPacket;
use nova::{CompileConfig, CompileOutput, Compiler};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Share of `--seconds` the focus stage gets. The other three split the
/// rest, the edit stage counting double: its tail percentile is the
/// noisiest number a run reports and needs the most passes.
pub const FOCUS_SHARE: f64 = 0.55;
/// Set-up is repeated and its median reported, so that work moved into
/// set-up shows and one slow page-in does not.
const SETUP_REPEATS: usize = 5;
/// Passes of the edit stream at least: each edit's latency is the median
/// of its latencies over the passes, and a median wants three.
const MIN_EDIT_PASSES: usize = 3;

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sizes {
    /// Edits per pass of the edit stage.
    pub edits: usize,
    /// Packets of the topology trace of the sim stage.
    pub topology_packets: usize,
    /// Pre-queued packets of the saturated AES chip job.
    pub chip_packets: usize,
    /// Packets of the rollout trace.
    pub rollout_packets: usize,
    /// Prefix length of the fast-path-vs-oracle differential run.
    pub oracle_prefix: usize,
    /// Constant edits the staged driver samples in a traced run.
    pub staged_constant_edits: usize,
}

impl Sizes {
    fn of(focus: Stage, smoke: bool) -> Sizes {
        let pick = |stage: Stage, focus_size: usize, side_size: usize, smoke_size: usize| {
            if smoke {
                smoke_size
            } else if focus == stage {
                focus_size
            } else {
                side_size
            }
        };
        Sizes {
            edits: pick(Stage::Edit, 2000, 1000, 40),
            topology_packets: pick(Stage::Sim, 400_000, 40_000, 3_000),
            chip_packets: pick(Stage::Sim, 24_000, 64, 64),
            rollout_packets: pick(Stage::Rollout, 60_000, 12_000, 4_000),
            oracle_prefix: if smoke { 200 } else { 2_000 },
            staged_constant_edits: if smoke { 10 } else { 200 },
        }
    }
}

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where traces and persist directories go (inside the checkout).
    pub out_dir: PathBuf,
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The fixed facts of one run.
pub(crate) struct Context<'a> {
    pub plan: &'a WorkloadDecl,
    pub args: &'a RunArgs,
    pub pins: Pins,
    pub sizes: Sizes,
    /// Compile configuration of every fresh session.
    pub config: CompileConfig,
}

/// Everything set-up produces: generated inputs and compiled images.
pub(crate) struct Inputs {
    /// Programs of the compile stage and their set-up compiles.
    pub programs: Vec<Prog>,
    pub images: Vec<CompileOutput>,
    pub stream: Vec<Edit>,
    pub sim_jobs: Vec<PreparedJob>,
    pub rollout_old: Program<PhysReg>,
    pub rollout_new: Program<PhysReg>,
    pub rollout_trace: Vec<FlowPacket>,
}

fn compile_cold(prog: &Prog, config: &CompileConfig) -> Result<CompileOutput, String> {
    Compiler::new(config.clone())
        .compile_output(&prog.source())
        .map_err(|e| format!("{}: {e}", prog.name()))
}

impl Inputs {
    fn build(cx: &Context) -> Result<Inputs, String> {
        let (seed, sizes, name) = (cx.args.seed, cx.sizes, cx.plan.name);
        let mut shape = gen::shape_rng(0x0B17);
        let mut content = Rng::new(seed ^ 0x0B17_1D5E);
        let stream = gen::edit_stream(seed, &gen::standard_mix(sizes.edits));
        // The rollout pair: an 8-rule classifier and a constant edit of it.
        let old_rules = gen::random_rules(&mut shape, &mut content, 8);
        let mut new_rules = old_rules.clone();
        for r in new_rules.iter_mut().step_by(2) {
            *r = gen::Rule::random(&mut content, r.kind);
        }
        let (old, new) = (Prog::Classifier(old_rules), Prog::Classifier(new_rules));

        let programs = match name {
            "cold_compile" => vec![
                Prog::Aes,
                Prog::Kasumi,
                Prog::Nat,
                Prog::Classifier(gen::random_rules(&mut shape, &mut content, 16)),
            ],
            "edit_stream" => vec![Prog::Classifier(stream[0].rules.clone())],
            "bulk_sim_nat" => vec![Prog::Nat],
            "bulk_sim_aes" => vec![Prog::Aes],
            _ => vec![old.clone(), new.clone()],
        };
        let images = programs
            .iter()
            .map(|p| compile_cold(p, &cx.config))
            .collect::<Result<Vec<_>, _>>()?;
        let (rollout_old, rollout_new) = if name == "rollout" {
            (images[0].prog.clone(), images[1].prog.clone())
        } else {
            (
                compile_cold(&old, &cx.config)?.prog,
                compile_cold(&new, &cx.config)?.prog,
            )
        };

        let topology = |image: &CompileOutput, write_packet: WritePacket| SimJob::Topology {
            image: image.prog.clone(),
            write_packet,
            spec: gen::paced_traffic(sizes.topology_packets),
        };
        let chip = |prog: &Prog, image: &CompileOutput, packets, check_step| SimJob::Chip {
            prog: prog.clone(),
            image: image.prog.clone(),
            packets,
            slice: 8,
            check_step,
        };
        let jobs = match name {
            "cold_compile" => programs
                .iter()
                .zip(&images)
                .map(|(p, i)| chip(p, i, 64, 1))
                .collect(),
            "bulk_sim_aes" => vec![chip(&programs[0], &images[0], sizes.chip_packets, 64)],
            "bulk_sim_nat" => vec![topology(&images[0], Box::new(nat_packet_writer(seed)))],
            _ => vec![topology(
                &images[0],
                Box::new(classifier_packet_writer(seed)),
            )],
        };
        Ok(Inputs {
            programs,
            images,
            stream,
            sim_jobs: jobs
                .into_iter()
                .map(|j| PreparedJob::new(j, seed))
                .collect(),
            rollout_old,
            rollout_new,
            rollout_trace: gen::paced_traffic(sizes.rollout_packets).generate(),
        })
    }
}

/// What the four stages measured.
pub(crate) struct Measured {
    /// Per program: median cold-compile ms over the passes.
    pub cold_ms: Vec<f64>,
    /// Per program: the distinct images the session produced in this run.
    /// (One for a deterministic compile. AES has two: its cold compile
    /// lands on one of two equal-cost allocations from run to run.)
    pub session_images: Vec<Vec<Program<PhysReg>>>,
    /// One sample per edit of the stream: the median over the passes of
    /// its host µs to the armed swap, plus the modeled µs from its swap
    /// barrier to its first packet.
    pub edit_us: Vec<f64>,
    /// Per pass: edits completed per second of stream wall.
    pub edits_per_s: Vec<f64>,
    /// The first edit pass in full, and its images applied to the chip.
    pub kept_pass: StreamPass,
    pub reload: ReloadOutcome,
    pub sim_passes: Vec<Vec<SimSample>>,
    pub rollout_passes: Vec<RolloutPass>,
    /// Fast-path wall over oracle wall on each sim job's prefix.
    pub oracle_ratios: Vec<f64>,
    /// Wall seconds of the focus stage's passes: traced, untraced.
    pub focus_walls: [Vec<f64>; 2],
}

/// Repeat `pass` until `budget_s` is used, at least `min_passes` times.
fn repeat<T>(budget_s: f64, min_passes: usize, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes || start.elapsed().as_secs_f64() < budget_s {
        out.push(pass(out.len()));
    }
    out
}

/// The deterministic facts of a compile: everything `artifact_eq`
/// compares except the register assignment itself.
fn same_allocation_cost(a: &CompileOutput, b: &CompileOutput) -> bool {
    a.code_size == b.code_size
        && a.alloc_stats.moves == b.alloc_stats.moves
        && a.alloc_stats.spills == b.alloc_stats.spills
        && a.alloc_stats.objective == b.alloc_stats.objective
        && a.alloc_quality.stage == b.alloc_quality.stage
}

fn measure(cx: &Context, inputs: &Inputs, tracers: [&Tracer; 2], checks: &mut Checks) -> Measured {
    let (args, pins, plan) = (cx.args, cx.pins, cx.plan);
    let [on, off] = tracers;
    let side_weight = |stage: Stage| if stage == Stage::Edit { 2.0 } else { 1.0 };
    let side_weights: f64 = [Stage::Compile, Stage::Edit, Stage::Sim, Stage::Rollout]
        .into_iter()
        .filter(|s| *s != plan.focus)
        .map(side_weight)
        .sum();
    let budget = |stage: Stage| {
        args.seconds
            * if stage == plan.focus {
                FOCUS_SHARE
            } else {
                (1.0 - FOCUS_SHARE) * side_weight(stage) / side_weights
            }
    };
    let min_passes = if args.smoke { 1 } else { 2 };
    // The focus stage of a traced run alternates traced and untraced
    // passes; their ratio is the tracing overhead.
    let tracer_for = |stage: Stage, pass: usize| {
        if args.trace && stage == plan.focus && pass % 2 == 1 {
            off
        } else {
            on
        }
    };
    let mut focus_walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut note_wall = |stage: Stage, pass: usize, wall_s: f64| {
        if stage == plan.focus {
            focus_walls[pass % 2].push(wall_s);
        }
    };

    // ---- compile: every program through a fresh session ----
    let mut session_images: Vec<Vec<Program<PhysReg>>> =
        inputs.images.iter().map(|o| vec![o.prog.clone()]).collect();
    let compile_passes: Vec<Vec<f64>> = repeat(budget(Stage::Compile), min_passes, |pass| {
        let tracer = tracer_for(Stage::Compile, pass);
        let pass_start = Instant::now();
        let ms = (0..inputs.programs.len())
            .map(|i| {
                let source = inputs.programs[i].source();
                let start = Instant::now();
                let out = tracer.span("nova.compile_output", i as u64, || {
                    Compiler::new(cx.config.clone()).compile_output(&source)
                });
                let ms = start.elapsed().as_secs_f64() * 1e3;
                checks.check(
                    out.as_ref()
                        .is_ok_and(|o| same_allocation_cost(o, &inputs.images[i])),
                    || {
                        format!(
                            "{}: cold compile failed or changed its allocation cost",
                            inputs.programs[i].name()
                        )
                    },
                );
                if let Ok(o) = out {
                    if !session_images[i].contains(&o.prog) {
                        session_images[i].push(o.prog);
                    }
                }
                ms
            })
            .collect();
        note_wall(Stage::Compile, pass, pass_start.elapsed().as_secs_f64());
        ms
    });
    let cold_ms = (0..inputs.programs.len())
        .map(|i| median(&compile_passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect();

    // ---- edit: the stream through a fresh server per pass ----
    // The first pass keeps its images (they go onto the chip, and the
    // traced run compares against them); every pass leaves its per-edit
    // host times.
    let edit_min = if args.smoke { 1 } else { MIN_EDIT_PASSES };
    let mut host_us: Vec<Vec<Option<f64>>> = Vec::new();
    let mut edits_per_s = Vec::new();
    let mut kept_pass: Option<StreamPass> = None;
    repeat(budget(Stage::Edit), edit_min, |pass| {
        let persist_dir = args
            .out_dir
            .join(format!("persist-{}-{pass}", std::process::id()));
        let stream_pass = edit_stage::serve_stream(
            &inputs.stream,
            pins,
            tracer_for(Stage::Edit, pass),
            persist_dir,
            pass == 0,
        );
        note_wall(Stage::Edit, pass, stream_pass.wall_s);
        host_us.push(
            stream_pass
                .served
                .iter()
                .map(|s| s.ok.then_some(s.host_us))
                .collect(),
        );
        edits_per_s.push(stream_pass.served.len() as f64 / stream_pass.wall_s);
        if pass == 0 {
            kept_pass = Some(stream_pass);
        } else {
            let _ = std::fs::remove_dir_all(&stream_pass.persist_dir);
        }
    });
    let kept_pass = kept_pass.expect("at least one edit pass");
    let reload = edit_stage::apply_and_check(&inputs.stream, &kept_pass, args.seed, on, checks);
    edit_stage::check_sampled_artifacts(&inputs.stream, &kept_pass, checks);
    // The passes serve the same stream, so edit i has one host latency
    // per pass; its median drops what only one pass saw (host noise, a
    // duplicate solve lost to a race). Images are deterministic, so the
    // modeled part is the same in every pass.
    let edit_us = (0..inputs.stream.len())
        .filter_map(|i| {
            let hosts: Vec<f64> = host_us.iter().filter_map(|pass| pass[i]).collect();
            let update = reload.update_cycles[i]?;
            (!hosts.is_empty()).then(|| median(&hosts) + cycles_to_us(update))
        })
        .collect();

    // ---- sim ----
    let sim_passes = repeat(budget(Stage::Sim), min_passes, |pass| {
        let tracer = tracer_for(Stage::Sim, pass);
        let samples: Vec<SimSample> = inputs
            .sim_jobs
            .iter()
            .map(|job| job.run_once(pins, tracer, checks))
            .collect();
        note_wall(Stage::Sim, pass, samples.iter().map(|s| s.wall_s).sum());
        samples
    });

    // ---- rollout ----
    let rollout_passes = repeat(budget(Stage::Rollout), min_passes, |pass| {
        let rollout = rollout_stage::rollout_pass(
            &inputs.rollout_old,
            &inputs.rollout_new,
            &inputs.rollout_trace,
            args.seed,
            pins,
            tracer_for(Stage::Rollout, pass),
            checks,
        );
        note_wall(Stage::Rollout, pass, rollout.host_s());
        rollout
    });

    // ---- checks outside any timed section ----
    // Compiled-program output against the Rust references.
    for (prog, image) in inputs.programs.iter().zip(&inputs.images) {
        let job = SimJob::Chip {
            prog: prog.clone(),
            image: image.prog.clone(),
            packets: 64,
            slice: 8,
            check_step: 1,
        };
        PreparedJob::new(job, args.seed ^ 0x0C4E).run_once(pins, off, checks);
    }
    // Fast path against the cycle-slice oracle on a prefix of each job.
    let oracle_ratios = inputs
        .sim_jobs
        .iter()
        .map(|job| job.oracle_ratio(pins, cx.sizes.oracle_prefix, args.seed, checks))
        .collect();

    Measured {
        cold_ms,
        session_images,
        edit_us,
        edits_per_s,
        kept_pass,
        reload,
        sim_passes,
        rollout_passes,
        oracle_ratios,
        focus_walls,
    }
}

fn cycles_to_us(cycles: u64) -> f64 {
    cycles as f64 * 1e6 / CLOCK_HZ as f64
}

fn end_to_end(inputs: &Inputs, m: &Measured, setup_s: &[f64]) -> BTreeMap<&'static str, f64> {
    let (_, edit_p50) = tail(&m.edit_us, 50.0);
    let (_, edit_p99) = tail(&m.edit_us, 99.0);
    let max_edit_update = m.reload.update_cycles.iter().flatten().copied().max();
    let rollout = &m.rollout_passes[0];
    // Host rate of a pass: work summed over its jobs per second of their
    // summed walls; modeled figures average the jobs geometrically.
    let rate = |work: &dyn Fn(&SimSample) -> f64| {
        let per_pass = |p: &Vec<SimSample>| {
            p.iter().map(work).sum::<f64>() / p.iter().map(|s| s.wall_s).sum::<f64>()
        };
        median(&m.sim_passes.iter().map(per_pass).collect::<Vec<_>>())
    };
    let modeled =
        |f: &dyn Fn(&SimSample) -> f64| geomean(&m.sim_passes[0].iter().map(f).collect::<Vec<_>>());
    let (offered, delivered) = rollout
        .reports
        .iter()
        .flat_map(|r| &r.stages)
        .fold((0, 0), |(o, d), s| {
            (o + s.disruption.offered, d + s.disruption.delivered)
        });
    BTreeMap::from([
        ("setup_s", median(setup_s)),
        ("cold_compile_ms", geomean(&m.cold_ms)),
        (
            "code_words",
            inputs.images.iter().map(|o| o.code_size as f64).sum(),
        ),
        ("modeled_mbps", modeled(&|s| s.mbps)),
        ("edit_to_first_packet_p50_us", edit_p50),
        ("edit_to_first_packet_p99_us", edit_p99),
        ("edits_per_s", median(&m.edits_per_s)),
        (
            "modeled_update_us",
            cycles_to_us(
                rollout
                    .max_update_cycles()
                    .max(max_edit_update.unwrap_or(0)),
            ),
        ),
        ("sim_packets_per_host_s", rate(&|s| s.delivered as f64)),
        ("sim_instr_per_host_s", rate(&|s| s.instructions as f64)),
        (
            "modeled_latency_p99_cycles",
            modeled(&|s| s.latency_p99_cycles as f64),
        ),
        (
            "rollout_host_s",
            median(
                &m.rollout_passes
                    .iter()
                    .map(RolloutPass::host_s)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "rollout_delivered_share",
            delivered as f64 / offered.max(1) as f64,
        ),
    ])
}

/// Run one workload once and report its metrics: the end-to-end set for
/// an untraced run, the per-layer set for a traced one.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let plan = metrics::WORKLOADS
        .iter()
        .find(|p| p.name == args.workload)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    let cx = Context {
        plan,
        args,
        pins: Pins::for_host(),
        sizes: Sizes::of(plan.focus, args.smoke),
        config: pins::compile_config(None),
    };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;

    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..if args.smoke { 1 } else { SETUP_REPEATS } {
        let start = Instant::now();
        inputs = Some(Inputs::build(&cx)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran at least once");

    let on = Tracer::new(args.trace);
    let off = Tracer::new(false);
    let mut checks = Checks::default();
    let measured = measure(&cx, &inputs, [&on, &off], &mut checks);

    let values = if args.trace {
        let values = layers::per_layer(&cx, &inputs, &measured, &on, &mut checks)?;
        let path = args.out_dir.join(format!("trace-{}.jsonl", plan.name));
        on.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        values
    } else {
        end_to_end(&inputs, &measured, &setup_s)
    };
    let _ = std::fs::remove_dir_all(&measured.kept_pass.persist_dir);

    let declared: Vec<(&'static str, &'static str)> = if args.trace {
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    // A row under a name the tables do not declare would silently vanish.
    if let Some(stray) = values
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric '{stray}' is not declared in metrics.rs"));
    }
    Ok(RunReport {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: declared
            .into_iter()
            .map(|(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
    })
}
