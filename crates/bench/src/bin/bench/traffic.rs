//! `bench traffic` (E14) — trace-driven multi-chip traffic simulation.
//! The ROADMAP north-star is "heavy traffic from millions of users", not
//! 64 packets through one chip: this sweep pushes the canonical bursty
//! Zipf trace ([`bench::traffic_spec`]) through sharded IXP1200
//! topologies behind the deterministic flow-hash load balancer, from a
//! 100k-packet point up to 10M packets across 8 chips, and records the
//! modeled outcome (drops, latency percentiles, aggregate Mb/s) next to
//! the host-side simulation rate the event-driven fast path buys
//! (`BENCH_traffic.json`). Every modeled number is bit-deterministic and
//! gated exactly, host rates get a generous floor. The smoke point is
//! the 100k-packet × 2-chip row.
//!
//! The compile runs at an exact gap so the allocated NAT program — and therefore the simulation — is
//! bit-identical across hosts and reruns.

use bench::json::Json;
use bench::{
    compile, microburst_spec, run_traffic_spec, table, traffic_result_json, traffic_spec, Benchmark,
};
use nova::{CompileConfig, SimMode, TopologyResult};

/// (packets, chips): one small point per chip count for shape, then the
/// 10M-packet run the fast path exists for.
const SWEEP: [(usize, usize); 4] = [(100_000, 1), (100_000, 2), (1_000_000, 4), (10_000_000, 8)];

/// Microburst stress points: line-rate ~48-packet bursts against the
/// 64-slot receive buffer. Bursts are per-flow and the balancer is
/// flow-affine, so adding chips thins cross-flow collisions but cannot
/// absorb a single flow's burst — the drop column stays nonzero.
const BURST_SWEEP: [(usize, usize); 2] = [(100_000, 1), (100_000, 2)];

/// The differential sub-run is small because the cycle-slice oracle is
/// the slow path — that is the point of the fast path.
const DIFF_POINT: (usize, usize) = (5_000, 2);

/// Everything modeled about a run, shard by shard — what must not depend
/// on the scheduler mode.
fn story(r: &TopologyResult) -> impl PartialEq + std::fmt::Debug {
    let shards: Vec<_> = r
        .chips
        .iter()
        .map(|c| (c.shard, c.offered, c.delivered, c.dropped, c.result.cycles))
        .collect();
    (
        r.offered,
        r.delivered,
        r.dropped,
        r.cycles,
        r.latency,
        shards,
    )
}

pub fn run(smoke: bool, violations: &mut Vec<String>) -> Json {
    let (paced, burst) = if smoke {
        (&SWEEP[1..2], &BURST_SWEEP[..0])
    } else {
        (&SWEEP[..], &BURST_SWEEP[..])
    };
    println!("Multi-chip traffic sweep (NAT, fast-path mode, flow-hash sharding)\n");
    let cfg = CompileConfig::builder().solver_gap(0.0).build();
    let out = compile(Benchmark::Nat, &cfg);
    let mut sweep = Vec::new();
    let mut rows = Vec::new();
    let mut run_point = |shape: &str, id: String, packets: usize, chips: usize| {
        let spec = match shape {
            "burst" => microburst_spec(packets),
            _ => traffic_spec(packets),
        };
        let (res, wall) = run_traffic_spec(&out, &spec, chips, SimMode::FastPath);
        if res.offered != res.delivered + res.dropped {
            violations.push(format!(
                "{id}: packet conservation broken: offered {} != delivered {} + dropped {}",
                res.offered, res.delivered, res.dropped,
            ));
        }
        if res.offered != packets as u64 {
            violations.push(format!(
                "{id}: run cut off at {} of {packets} packets (cycle ceiling hit?)",
                res.offered,
            ));
        }
        let entry = traffic_result_json(&id, packets, chips, &res, wall);
        rows.push(vec![
            shape.to_string(),
            format!("{packets}"),
            format!("{chips}"),
            format!("{}", res.delivered),
            format!("{}", res.dropped),
            format!("{}", res.latency.p50),
            format!("{}", res.latency.p99),
            format!("{:.1}", res.mbps),
            format!("{:.0}", wall.as_secs_f64() * 1e3),
            format!(
                "{:.1}",
                entry.num("host_sim_cycles_per_sec").unwrap_or(0.0) / 1e6
            ),
        ]);
        sweep.push(entry);
    };
    for &(packets, chips) in paced {
        run_point("paced", format!("p{packets}x{chips}"), packets, chips);
    }
    for &(packets, chips) in burst {
        run_point("burst", format!("burst{packets}x{chips}"), packets, chips);
    }
    println!(
        "{}",
        table(
            &[
                "shape",
                "packets",
                "chips",
                "delivered",
                "dropped",
                "lat p50",
                "lat p99",
                "Mb/s",
                "host ms",
                "Msim-cyc/s",
            ],
            &rows,
        )
    );
    // The fast path must tell exactly the same story as the cycle-slice
    // oracle, shard by shard. It runs after the timed sweep so the
    // sweep's first host rate is taken from the same cold start as the
    // checked-in baseline's.
    let (packets, chips) = DIFF_POINT;
    let spec = traffic_spec(packets);
    let (fast, _) = run_traffic_spec(&out, &spec, chips, SimMode::FastPath);
    let (slow, _) = run_traffic_spec(&out, &spec, chips, SimMode::CycleSlice);
    if story(&fast) != story(&slow) {
        violations.push(format!(
            "fast path diverged from the cycle-slice oracle on {packets} packets x {chips} \
             chips:\n  fast: {:?}\n  slow: {:?}",
            story(&fast),
            story(&slow),
        ));
    }
    println!("latencies are in 233 MHz chip cycles, arrival to transmit;");
    println!("Mb/s is the modeled aggregate over all chips.");
    Json::obj([
        ("bench", Json::str("traffic")),
        (
            "config",
            Json::obj([
                (
                    "clock_hz",
                    Json::int(ixp_machine::timing::CLOCK_HZ as usize),
                ),
                ("benchmark", Json::str("NAT")),
                ("mode", Json::str("fast_path")),
                ("relative_gap", Json::Num(0.0)),
            ]),
        ),
        ("sweep", Json::Arr(sweep)),
    ])
}
