//! `bench reload` (E16) — hot reload and restart. Measures (a) the
//! end-to-end latency of a classifier rule update on a live simulated
//! chip — warm solve-free recompile, image swap between packets, first
//! packet transmitted through the new rules — and (b) how much faster a
//! restarted server warms up when its MILP solves come off the on-disk
//! artifact cache (`BENCH_reload.json`). Modeled cycles and cache
//! counters are deterministic and gated exactly, the restart speedup
//! gets an absolute floor, host walls are informational.

use bench::json::Json;
use bench::reload::{reload_json, run_hot_reload, run_restart, ScratchDir};
use bench::table;

/// Payload bytes per packet.
const PAYLOAD: u32 = 64;
/// (packets in the hot-reload receive queue, transmitted-packet
/// thresholds arming the image swaps, structurally distinct rule sets in
/// the restart stream). The restart half is smoke-sized as it is, and
/// fewer solves would leave its speedup floor no headroom.
const FULL: (usize, &[u64], usize) = (1200, &[300, 600, 900], 6);
const SMOKE: (usize, &[u64], usize) = (240, &[60, 120], 6);

pub fn run(smoke: bool, violations: &mut Vec<String>) -> Json {
    let (packets, swaps_at, variants) = if smoke { SMOKE } else { FULL };
    println!(
        "Hot reload: {packets} packets, swaps after {swaps_at:?}; \
         restart: {variants} structurally distinct rule sets\n"
    );

    let hot = run_hot_reload(packets, PAYLOAD, swaps_at);
    println!(
        "{}",
        table(
            &[
                "swap after",
                "compile ms",
                "swap cycle",
                "first tx",
                "update cyc",
                "update us"
            ],
            &hot.swaps
                .iter()
                .map(|s| vec![
                    format!("{}", s.after_packets),
                    format!("{:.1}", s.compile_wall.as_secs_f64() * 1e3),
                    format!("{}", s.report.swap_cycle.unwrap_or(0)),
                    format!("{}", s.report.first_tx_cycle.unwrap_or(0)),
                    format!("{}", s.update_cycles()),
                    format!("{:.1}", s.update_us()),
                ])
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "hot session: base solve + {} solve-free updates (alloc {}h/{}m), \
         {} packets in {} cycles\n",
        hot.swaps.len(),
        hot.stats.alloc_hits,
        hot.stats.alloc_misses,
        hot.result.packets,
        hot.result.cycles,
    );

    let dir = ScratchDir::new("reload-bench");
    let restart = run_restart(variants, dir.path());
    println!(
        "restart: cold {:.0} ms -> warm {:.0} ms ({:.1}x), disk {}h/{}m/{}r, \
         {} mismatches, {} failures",
        restart.cold_wall.as_secs_f64() * 1e3,
        restart.warm_wall.as_secs_f64() * 1e3,
        restart.speedup(),
        restart.warm_stats.disk_hits,
        restart.warm_stats.disk_misses,
        restart.warm_stats.disk_rejects,
        restart.mismatches,
        restart.failures,
    );

    // The base image is the only solve and every update a constant-only
    // hit; cold, every structure solves and persists once; restarted,
    // every solve is a disk load.
    let (h, c, w) = (&hot.stats, &restart.cold_stats, &restart.warm_stats);
    crate::expect_counts(
        violations,
        &[
            ("hot solves", h.alloc_misses, 1),
            ("hot solve-free updates", h.alloc_hits, swaps_at.len()),
            ("hot refinish fallbacks", h.refinish_fallbacks, 0),
            ("cold solves", c.alloc_misses, variants),
            ("cold disk misses", c.disk_misses, variants),
            ("cold disk hits + rejects", c.disk_hits + c.disk_rejects, 0),
            ("restart disk hits", w.disk_hits, variants),
            ("restart allocation hits", w.alloc_hits, variants),
            (
                "restart solves + rejects",
                w.alloc_misses + w.disk_rejects,
                0,
            ),
        ],
    );
    reload_json(&hot, &restart)
}
