//! `bench solver` — machine-readable solver performance trajectory:
//! compiles each §11 benchmark at 1, 2, and 4 solver threads and records
//! solve wall/CPU time, node/pivot counts, warm-start hit rates, and the
//! allocation quality (objective, moves, spills), plus one simulator
//! throughput sample per program (`BENCH_solver.json`), so successive
//! PRs can diff solver performance. The smoke point is NAT at one thread.
//!
//! The thread sweep runs with `relative_gap = 0`, which makes the optimum
//! unique: every thread count must report the same objective and spill
//! count, so the file doubles as a determinism check.

use bench::json::Json;
use bench::{compile, run_chip_throughput, solve_stats_json, Benchmark};
use nova::CompileConfig;
use std::time::Instant;

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

pub fn run(smoke: bool, violations: &mut Vec<String>) -> Json {
    let (benchmarks, requested): (&[Benchmark], &[usize]) = if smoke {
        (&[Benchmark::Nat], &THREAD_SWEEP[..1])
    } else {
        (&Benchmark::ALL, &THREAD_SWEEP)
    };
    let avail = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Clamp the sweep to the host: a 4-thread run on a 1-core box only
    // measures scheduler interleaving and makes cpu_s/solve_s ratios
    // meaningless. The requested sweep is still recorded in the JSON so
    // a clamped file is recognizable.
    let mut sweep: Vec<usize> = requested.iter().map(|&t| t.min(avail)).collect();
    sweep.dedup();
    if sweep.len() < requested.len() {
        eprintln!("host has {avail} core(s); clamping thread sweep {requested:?} -> {sweep:?}");
    }
    let mut programs = Vec::new();
    for &b in benchmarks {
        eprintln!("{}:", b.name());
        let mut runs = Vec::new();
        let mut last = None;
        let mut objective: Option<f64> = None;
        let mut consistent = true;
        for &threads in &sweep {
            // Exact gap: the optimum is unique, so the sweep doubles as a
            // cross-thread determinism check.
            let cfg = CompileConfig::builder()
                .solver_threads(threads)
                .solver_gap(0.0)
                .build();
            let t0 = Instant::now();
            let out = compile(b, &cfg);
            let compile_s = t0.elapsed().as_secs_f64();
            let st = &out.alloc_stats;
            eprintln!(
                "  {} threads: solve {:.2}s, {} nodes, {} pivots, {:.0}% warm, \
                 objective {:.3}, {} moves, {} spills",
                threads,
                st.solve.total_time.as_secs_f64(),
                st.solve.nodes,
                st.solve.simplex_iterations,
                100.0 * st.solve.warm_hit_rate(),
                st.objective,
                st.moves,
                st.spills,
            );
            match objective {
                None => objective = Some(st.objective),
                Some(prev) => {
                    // Tolerance matches the solver's fathoming margin:
                    // sub-margin incumbent ties are schedule-dependent.
                    if (prev - st.objective).abs() > 5e-5 {
                        consistent = false;
                        violations.push(format!(
                            "{}: objective drifted across thread counts ({prev} vs {})",
                            b.name(),
                            st.objective
                        ));
                    }
                }
            }
            let mut run = solve_stats_json(st);
            if let Json::Obj(pairs) = &mut run {
                pairs.push(("compile_s".to_string(), Json::Num(compile_s)));
            }
            runs.push(run);
            last = Some(out);
        }
        let out = last.expect("at least one thread count");
        let st = &out.alloc_stats;
        let payload = match b {
            Benchmark::Aes => 16u32,
            Benchmark::Kasumi => 16,
            Benchmark::Nat => 64,
        };
        let sim = run_chip_throughput(b, &out, 64, payload, 1, 4);
        eprintln!(
            "  simulate: {} packets, {} cycles, {:.1} Mb/s",
            sim.packets, sim.cycles, sim.mbps
        );
        // `degraded` marks builds that fell down the allocator fallback
        // ladder (stage > 0): the gate reports them but never gates.
        programs.push(Json::obj([
            ("name", Json::str(b.name())),
            ("degraded", Json::Bool(out.alloc_quality.stage > 0)),
            (
                "model",
                Json::obj([
                    ("variables", Json::int(st.model.variables)),
                    ("constraints", Json::int(st.model.constraints)),
                    ("objective_terms", Json::int(st.model.objective_terms)),
                ]),
            ),
            ("runs", Json::Arr(runs)),
            (
                "objective_consistent_across_threads",
                Json::Bool(consistent),
            ),
            ("code_size", Json::int(out.code_size)),
            (
                "simulate",
                Json::obj([
                    ("payload_bytes", Json::int(payload as usize)),
                    ("contexts", Json::int(4)),
                    ("packets", Json::int(sim.packets as usize)),
                    ("cycles", Json::int(sim.cycles as usize)),
                    ("mbps", Json::Num(sim.mbps)),
                ]),
            ),
        ]));
    }
    Json::obj([
        ("bench", Json::str("solver")),
        (
            "config",
            Json::obj([
                ("relative_gap", Json::Num(0.0)),
                (
                    "thread_sweep",
                    Json::Arr(sweep.iter().map(|&t| Json::int(t)).collect()),
                ),
                (
                    "requested_thread_sweep",
                    Json::Arr(requested.iter().map(|&t| Json::int(t)).collect()),
                ),
            ]),
        ),
        (
            "host",
            Json::obj([("available_parallelism", Json::int(avail))]),
        ),
        ("programs", Json::Arr(programs)),
    ])
}
