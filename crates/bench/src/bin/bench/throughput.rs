//! `bench throughput` (E4) — regenerate §11's throughput measurements,
//! now at chip scale. The paper reports, on a 233 MHz IXP1200 with a
//! hardware packet generator: AES 270 Mb/s at 16-byte payloads; Kasumi
//! 320, 210, and 60 Mb/s at 8, 16, and 256-byte payloads. We run the
//! compiled programs on the chip-level simulator, sweeping the
//! micro-engine count from 1 to the full chip's 6, and record per-channel
//! occupancy so the scaling knee (line rate until a memory channel
//! saturates) is visible in the data, not just asserted
//! (`BENCH_throughput.json`). The smoke point is NAT on 2 engines.
//!
//! The compile runs at an exact gap so the allocated program — and
//! therefore the deterministic chip simulation — is bit-identical across
//! hosts and reruns.

use bench::json::Json;
use bench::{chip_result_json, compile, run_chip_throughput, table, Benchmark};
use nova::{CompileConfig, StopReason};

const PROGRAMS: [(Benchmark, u32); 3] = [
    (Benchmark::Aes, 16),
    (Benchmark::Kasumi, 16),
    (Benchmark::Nat, 64),
];
const ENGINE_SWEEP: [usize; 6] = [1, 2, 3, 4, 5, 6];
const CONTEXTS: usize = 4;
const PACKETS: usize = 64;

pub fn run(smoke: bool, violations: &mut Vec<String>) -> Json {
    let (programs_run, engine_sweep) = if smoke {
        (&PROGRAMS[2..], &ENGINE_SWEEP[1..2])
    } else {
        (&PROGRAMS[..], &ENGINE_SWEEP[..])
    };
    println!("Throughput on the simulated 233 MHz IXP1200 ({CONTEXTS} contexts/engine)\n");
    let cfg = CompileConfig::builder().solver_gap(0.0).build();
    let mut programs = Vec::new();
    let mut rows = Vec::new();
    for &(b, payload) in programs_run {
        let out = compile(b, &cfg);
        let s = &out.alloc_stats.solve;
        println!(
            "{}: ILP solved in {:.2}s ({} nodes, {} pivots, {:.0}% warm-start hits)",
            b.name(),
            s.total_time.as_secs_f64(),
            s.nodes,
            s.simplex_iterations,
            100.0 * s.warm_hit_rate(),
        );
        let mut sweep = Vec::new();
        for &engines in engine_sweep {
            let res = run_chip_throughput(b, &out, PACKETS, payload, engines, CONTEXTS);
            // A cycle-limited run is still recorded: its per-engine and
            // per-channel statistics describe the completed prefix, with
            // the `stop` field ("cycle-limit") and the packet count
            // marking it as partial in the JSON and the table. It is a
            // violation all the same, as is an engine left without work.
            let packets_cell = if res.stop == StopReason::CycleLimit {
                format!("{}/{PACKETS} (partial)", res.packets)
            } else {
                res.packets.to_string()
            };
            let point = format!("{} on {engines} engines", b.name());
            if res.stop != StopReason::AllHalted || res.packets != PACKETS as u64 {
                violations.push(format!(
                    "{point}: {:?} after {} of {PACKETS} packets",
                    res.stop, res.packets
                ));
            }
            if res.engines.iter().any(|e| e.packets == 0) {
                violations.push(format!("{point}: an engine processed no packets"));
            }
            let busiest = res
                .channels
                .iter()
                .max_by(|a, c| a.occupancy(res.cycles).total_cmp(&c.occupancy(res.cycles)))
                .expect("three channels");
            rows.push(vec![
                b.name().to_string(),
                payload.to_string(),
                engines.to_string(),
                packets_cell,
                res.cycles.to_string(),
                format!("{:.1}", res.mbps),
                format!(
                    "{:?} {:.0}%",
                    busiest.space,
                    100.0 * busiest.occupancy(res.cycles)
                ),
            ]);
            let mut entry = chip_result_json(&res);
            if let Json::Obj(pairs) = &mut entry {
                pairs.insert(0, ("engines".to_string(), Json::int(engines)));
            }
            sweep.push(entry);
        }
        // Payload sweep at one engine (the chip sweep's `engines: 1` point,
        // varied over payload size), kept so the payload-size trend stays
        // comparable across PRs.
        let payload_sweep: Vec<Json> = match b {
            Benchmark::Aes => vec![16u32, 32, 64, 128, 256],
            Benchmark::Kasumi => vec![8, 16, 32, 64, 256],
            Benchmark::Nat => vec![16, 64, 256],
        }
        .into_iter()
        .map(|p| {
            let res = run_chip_throughput(b, &out, PACKETS, p, 1, CONTEXTS);
            Json::obj([
                ("payload_bytes", Json::int(p as usize)),
                ("packets", Json::int(res.packets as usize)),
                ("cycles", Json::int(res.cycles as usize)),
                ("mbps", Json::Num(res.mbps)),
                (
                    "stop",
                    Json::str(match res.stop {
                        StopReason::AllHalted => "all-halted",
                        StopReason::CycleLimit => "cycle-limit",
                    }),
                ),
            ])
        })
        .collect();
        // A build that fell down the allocator ladder is still valid but
        // not comparable: mark it so the gate reports without gating.
        programs.push(Json::obj([
            ("name", Json::str(b.name())),
            ("degraded", Json::Bool(out.alloc_quality.stage > 0)),
            ("payload_bytes", Json::int(payload as usize)),
            ("engine_sweep", Json::Arr(sweep)),
            ("single_engine_payload_sweep", Json::Arr(payload_sweep)),
        ]));
    }
    println!();
    println!(
        "{}",
        table(
            &[
                "program",
                "payload(B)",
                "engines",
                "packets",
                "cycles",
                "Mb/s",
                "busiest channel"
            ],
            &rows,
        )
    );
    println!("paper (§11, real IXP1200 hardware, full chip):");
    println!("  AES:    270 Mb/s at 16 B payloads");
    println!("  Kasumi: 320 / 210 / 60 Mb/s at 8 / 16 / 256 B payloads");
    println!();
    println!("shapes to check: Mb/s scales with engine count until the busiest");
    println!("memory channel's occupancy approaches 100%, then flattens — the");
    println!("knee the paper's latency-hiding design runs into (§11).");
    Json::obj([
        ("bench", Json::str("throughput")),
        (
            "config",
            Json::obj([
                (
                    "clock_hz",
                    Json::int(ixp_machine::timing::CLOCK_HZ as usize),
                ),
                ("contexts", Json::int(CONTEXTS)),
                ("packets", Json::int(PACKETS)),
                (
                    "engine_sweep",
                    Json::Arr(engine_sweep.iter().map(|&e| Json::int(e)).collect()),
                ),
                ("relative_gap", Json::Num(0.0)),
            ]),
        ),
        ("programs", Json::Arr(programs)),
    ])
}
