//! `bench solver` — machine-readable solver performance trajectory:
//! compiles each §11 benchmark once at `relative_gap = 0` and records
//! solve wall time, node/pivot counts, warm-start hit rates, and the
//! allocation quality (objective, moves, spills), plus one simulator
//! throughput sample per program (`BENCH_solver.json`), so successive
//! PRs can diff solver performance. The smoke point is NAT.

use bench::json::Json;
use bench::{compile, run_chip_throughput, Benchmark};
use nova::CompileConfig;
use std::time::Instant;

pub fn run(smoke: bool, _violations: &mut Vec<String>) -> Json {
    let benchmarks: &[Benchmark] = if smoke {
        &[Benchmark::Nat]
    } else {
        &Benchmark::ALL
    };
    let mut programs = Vec::new();
    for &b in benchmarks {
        // Exact gap: the optimum objective is unique.
        let cfg = CompileConfig::builder().solver_gap(0.0).build();
        let t0 = Instant::now();
        let out = compile(b, &cfg);
        let compile_s = t0.elapsed().as_secs_f64();
        let st = &out.alloc_stats;
        eprintln!(
            "{}: solve {:.2}s, {} nodes, {} pivots, {:.0}% warm, \
             objective {:.3}, {} moves, {} spills",
            b.name(),
            st.solve.total_time.as_secs_f64(),
            st.solve.nodes,
            st.solve.simplex_iterations,
            100.0 * st.solve.warm_hit_rate(),
            st.objective,
            st.moves,
            st.spills,
        );
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
        let head = [
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
        ];
        let tail = [
            ("compile_s", Json::Num(compile_s)),
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
        ];
        programs.push(Json::obj(
            head.into_iter().chain(solve_stats(st)).chain(tail),
        ));
    }
    Json::obj([
        ("bench", Json::str("solver")),
        ("config", Json::obj([("relative_gap", Json::Num(0.0))])),
        ("programs", Json::Arr(programs)),
    ])
}

/// One solve's [`ilp::SolveStats`] plus the allocation's objective and
/// move/spill counts.
fn solve_stats(st: &nova::AllocStats) -> Vec<(&'static str, Json)> {
    let s = &st.solve;
    vec![
        ("root_s", Json::Num(s.root_time.as_secs_f64())),
        ("solve_s", Json::Num(s.total_time.as_secs_f64())),
        ("nodes", Json::int(s.nodes)),
        ("pivots", Json::int(s.simplex_iterations)),
        ("pivots_per_sec", Json::Num(s.pivots_per_sec())),
        ("refactorizations", Json::int(s.refactorizations)),
        ("eta_pivots", Json::int(s.eta_pivots)),
        ("lu_fill_nnz", Json::int(s.lu_fill_nnz)),
        ("warm_hits", Json::int(s.warm_hits)),
        ("warm_misses", Json::int(s.warm_misses)),
        ("warm_hit_rate", Json::Num(s.warm_hit_rate())),
        ("activated_rows", Json::int(s.activated_rows)),
        ("presolved_rows", Json::int(s.presolved_rows)),
        ("gap", Json::Num(s.gap)),
        ("proven_optimal", Json::Bool(s.proven_optimal)),
        ("objective", Json::Num(st.objective)),
        ("moves", Json::int(st.moves)),
        ("spills", Json::int(st.spills)),
    ]
}
