//! Hot-reload and restart benchmark harness (E16).
//!
//! Two measurements of the hardened compile service:
//!
//! * **Hot reload** — the end-to-end latency of a rule update on a live
//!   chip: compile a classifier rule update in a warm session (a
//!   solve-free, constant-only recompile), swap the new image onto the
//!   running simulated chip between packets via
//!   [`ixp_sim::simulate_chip_reload`], and pin the first packet
//!   transmitted through the new rules. The modeled part of the latency
//!   (swap cycle → first post-swap transmit, including the control-store
//!   reload stall) is exactly deterministic and gated `Exact`; the
//!   compile wall time is host-noisy and reported as `Info`.
//! * **Restart** — a server process dies and its replacement warms from
//!   the on-disk artifact cache: session one compiles structurally
//!   distinct rule sets with a `persist_dir`, a fresh session over the
//!   same directory replays the stream, and every MILP solve is replaced
//!   by a disk load (`disk_hits` = variant count, artifacts
//!   bit-identical, wall-time speedup gated against an absolute floor).

use crate::json::Json;
use crate::service::cache_stats_json;
use ixp_sim::{
    simulate_chip_reload, ChipConfig, ImageSwap, PacketGen, PacketSpec, SimMemory, SimResult,
    SwapReport,
};
use nova::{CacheStats, CompileConfig, CompileOutput, Compiler};
use nova_server::{CompileRequest, CompileResponse, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{classifier_rules, classifier_source, CLASSIFIER_RULES};

/// Rule-stream seed shared by the reload and rollout scenarios.
pub const RELOAD_SEED: u64 = 0x0E10_AD00;

/// One measured image swap of the hot-reload run.
#[derive(Debug)]
pub struct HotSwap {
    /// Transmitted-packet threshold that armed the swap.
    pub after_packets: u64,
    /// Host wall time of the (warm, solve-free) recompile.
    pub compile_wall: Duration,
    /// The simulator's swap report (modeled cycles; deterministic).
    pub report: SwapReport,
}

impl HotSwap {
    /// Modeled swap → first-new-rules-transmit latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if the swap never fired — the harness sizes the packet
    /// stream so every threshold is reached.
    pub fn update_cycles(&self) -> u64 {
        self.report
            .update_cycles()
            .expect("swap fired and a packet followed it")
    }

    /// [`update_cycles`](Self::update_cycles) converted to microseconds
    /// at the IXP1200's 233 MHz clock.
    pub fn update_us(&self) -> f64 {
        self.update_cycles() as f64 * 1e6 / ixp_machine::timing::CLOCK_HZ as f64
    }
}

/// Measured outcome of the hot-reload run.
#[derive(Debug)]
pub struct HotReloadRun {
    /// Micro-engines simulated.
    pub engines: usize,
    /// Contexts per engine.
    pub contexts: usize,
    /// Packets in the receive queue.
    pub packets: usize,
    /// Payload bytes per packet.
    pub payload_bytes: u32,
    /// Host wall time of the cold base-image compile.
    pub base_compile_wall: Duration,
    /// One entry per scheduled swap, in firing order.
    pub swaps: Vec<HotSwap>,
    /// The simulation result of the whole (multi-image) run. The
    /// transmitted total sits slightly below `packets`: a swap aborts
    /// whatever packets contexts held in flight (at most one per
    /// context per swap), deterministically.
    pub result: SimResult,
    /// Compile-session counters: the base image is the only solve, every
    /// update is a constant-only alloc hit.
    pub stats: CacheStats,
}

/// Run the hot-reload measurement: compile classifier variant 0 cold,
/// variants `1..=swaps_at.len()` warm in the same session, and swap each
/// onto the running chip when `swaps_at[i]` packets have been
/// transmitted.
///
/// # Panics
///
/// Panics if a compile or the simulation fails, or if a scheduled swap
/// never fires — the generated stream is known-good, so either is
/// harness breakage rather than a measurement.
pub fn run_hot_reload(packets: usize, payload_bytes: u32, swaps_at: &[u64]) -> HotReloadRun {
    let session = Compiler::new(CompileConfig::default());
    let compile_variant = |variant: u64| -> (CompileOutput, Duration) {
        let rules = classifier_rules(RELOAD_SEED, variant, CLASSIFIER_RULES);
        let start = Instant::now();
        let out = session
            .compile_output(&classifier_source(&rules))
            .unwrap_or_else(|e| panic!("classifier variant {variant}: {e}"));
        (out, start.elapsed())
    };

    let (base, base_compile_wall) = compile_variant(0);
    let updates: Vec<(CompileOutput, Duration)> =
        (1..=swaps_at.len() as u64).map(compile_variant).collect();

    let mut mem = SimMemory::with_sizes(64, 1 << 20, 128);
    PacketGen::new(RELOAD_SEED).generate(
        &mut mem,
        &PacketSpec {
            count: packets,
            payload_bytes,
            header_bytes: workloads::HEADER_BYTES,
            seed: RELOAD_SEED ^ 1,
        },
    );

    let cfg = ChipConfig {
        engines: 2,
        contexts: 4,
        max_cycles: 4_000_000_000,
        ..ChipConfig::default()
    };
    let swaps: Vec<ImageSwap> = swaps_at
        .iter()
        .zip(&updates)
        .map(|(&after, (out, _))| ImageSwap::new(after, out.prog.clone()))
        .collect();
    let (result, reports) =
        simulate_chip_reload(&base.prog, &swaps, &mut mem, &cfg).expect("reload simulation runs");

    HotReloadRun {
        engines: cfg.engines,
        contexts: cfg.contexts,
        packets,
        payload_bytes,
        base_compile_wall,
        swaps: swaps_at
            .iter()
            .zip(updates)
            .zip(reports)
            .map(|((&after, (_, compile_wall)), report)| HotSwap {
                after_packets: after,
                compile_wall,
                report,
            })
            .collect(),
        result,
        stats: session.cache_stats(),
    }
}

/// Measured outcome of the restart (warm-from-disk) run.
#[derive(Debug)]
pub struct RestartRun {
    /// Structurally distinct rule sets in the stream (rule counts
    /// `2..2+variants`), each forcing its own MILP solve cold.
    pub variants: usize,
    /// Wall time of the cold batch (every variant solved + persisted).
    pub cold_wall: Duration,
    /// Wall time of the warm batch (every solve replaced by a disk load).
    pub warm_wall: Duration,
    /// First server's counters: all misses, one disk store per variant.
    pub cold_stats: CacheStats,
    /// Restarted server's counters: `disk_hits` = `variants`, no solves.
    pub warm_stats: CacheStats,
    /// Warm responses whose artifact differed from the cold one (must be
    /// zero: a disk-loaded allocation must be bit-identical).
    pub mismatches: usize,
    /// Requests that failed to compile in either batch (must be zero).
    pub failures: usize,
}

impl RestartRun {
    /// Cold-over-warm wall-time ratio — how much faster the restarted
    /// server warms up because the MILP solves come off disk.
    pub fn speedup(&self) -> f64 {
        self.cold_wall.as_secs_f64() / self.warm_wall.as_secs_f64().max(1e-9)
    }
}

/// The restart stream: `variants` structurally distinct classifiers
/// (rule counts `2..2+variants`, so the immediate-masked allocation key
/// cannot alias them) as server requests.
pub fn restart_stream(variants: usize) -> Vec<CompileRequest> {
    (0..variants)
        .map(|i| {
            let rules = classifier_rules(RELOAD_SEED, 0, 2 + i);
            CompileRequest::new(i as u64, classifier_source(&rules))
        })
        .collect()
}

/// Run the restart measurement over `persist_dir`: server one compiles
/// the stream cold (populating the disk cache), is dropped, and a fresh
/// server over the same directory replays the stream warm. The caller
/// owns the directory; it must start empty.
pub fn run_restart(variants: usize, persist_dir: &Path) -> RestartRun {
    let server_over = |dir: &Path| {
        Server::new(ServerConfig {
            workers: 1,
            compile: CompileConfig::builder().persist_dir(dir).build(),
            ..ServerConfig::default()
        })
    };
    let run_batch = |server: &Server| -> (Vec<CompileResponse>, Duration) {
        let start = Instant::now();
        let responses = server.submit_batch(restart_stream(variants));
        (responses, start.elapsed())
    };

    let cold_server = server_over(persist_dir);
    let (cold, cold_wall) = run_batch(&cold_server);
    let cold_stats = cold_server.cache_stats();
    drop(cold_server); // the "crash": only the disk cache survives

    let warm_server = server_over(persist_dir);
    let (warm, warm_wall) = run_batch(&warm_server);
    let warm_stats = warm_server.cache_stats();

    let failures = cold
        .iter()
        .chain(&warm)
        .filter(|r| r.result.is_err())
        .count();
    let mismatches = warm
        .iter()
        .zip(&cold)
        .filter(|(w, c)| match (&w.result, &c.result) {
            (Ok(w), Ok(c)) => !w.artifact_eq(c),
            _ => true,
        })
        .count();

    RestartRun {
        variants,
        cold_wall,
        warm_wall,
        cold_stats,
        warm_stats,
        mismatches,
        failures,
    }
}

/// A scratch directory for one persistence run, removed on drop.
/// Uniqueness comes from the process id plus a caller tag — enough for
/// the `bench` scenarios, which own their tags.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create (empty) `nova-<tag>-<pid>` under the system temp dir.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created or emptied.
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("nova-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `BENCH_reload.json` document for one hot-reload + restart run.
pub fn reload_json(hot: &HotReloadRun, restart: &RestartRun) -> Json {
    Json::obj([
        ("bench", Json::str("reload")),
        (
            "hot",
            Json::obj([
                ("engines", Json::int(hot.engines)),
                ("contexts", Json::int(hot.contexts)),
                ("packets", Json::int(hot.packets)),
                ("payload_bytes", Json::int(hot.payload_bytes as usize)),
                (
                    "base_compile_ms",
                    Json::Num(hot.base_compile_wall.as_secs_f64() * 1e3),
                ),
                (
                    "sim",
                    Json::obj([
                        ("cycles", Json::int(hot.result.cycles as usize)),
                        ("packets", Json::int(hot.result.packets as usize)),
                        ("instructions", Json::int(hot.result.instructions as usize)),
                    ]),
                ),
                (
                    "swaps",
                    Json::Arr(
                        hot.swaps
                            .iter()
                            .map(|s| {
                                Json::obj([
                                    ("after_packets", Json::int(s.after_packets as usize)),
                                    ("compile_ms", Json::Num(s.compile_wall.as_secs_f64() * 1e3)),
                                    (
                                        "swap_cycle",
                                        Json::int(s.report.swap_cycle.unwrap_or(0) as usize),
                                    ),
                                    (
                                        "first_tx_cycle",
                                        Json::int(s.report.first_tx_cycle.unwrap_or(0) as usize),
                                    ),
                                    ("update_cycles", Json::int(s.update_cycles() as usize)),
                                    ("update_us", Json::Num(s.update_us())),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("counters", cache_stats_json(&hot.stats)),
            ]),
        ),
        (
            "restart",
            Json::obj([
                ("variants", Json::int(restart.variants)),
                (
                    "cold_wall_ms",
                    Json::Num(restart.cold_wall.as_secs_f64() * 1e3),
                ),
                (
                    "warm_wall_ms",
                    Json::Num(restart.warm_wall.as_secs_f64() * 1e3),
                ),
                ("speedup", Json::Num(restart.speedup())),
                ("cold_counters", cache_stats_json(&restart.cold_stats)),
                ("warm_counters", cache_stats_json(&restart.warm_stats)),
                ("mismatches", Json::int(restart.mismatches)),
                ("failures", Json::int(restart.failures)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_reload_counters_and_reports_are_exact() {
        let run = run_hot_reload(120, 64, &[30, 60]);
        // Base image solved once; both updates are constant-only hits.
        assert_eq!(run.stats.alloc_misses, 1);
        assert_eq!(run.stats.alloc_hits, 2);
        assert_eq!(run.stats.refinish_fallbacks, 0);
        // A swap aborts the packets contexts held in flight (their
        // rx_queue pop already happened), so the transmitted total sits
        // a few below the queued count — bounded by one packet per
        // context per swap, and exactly reproducible run to run.
        let in_flight_bound = (run.engines * run.contexts * run.swaps.len()) as u64;
        assert!(run.result.packets <= 120);
        assert!(run.result.packets >= 120 - in_flight_bound);
        let rerun = run_hot_reload(120, 64, &[30, 60]);
        assert_eq!(rerun.result.packets, run.result.packets);
        assert_eq!(rerun.result.cycles, run.result.cycles);
        for s in &run.swaps {
            let swap = s.report.swap_cycle.expect("swap fired");
            let first = s.report.first_tx_cycle.expect("a packet followed");
            assert!(first > swap, "update latency is positive");
            assert_eq!(s.update_cycles(), first - swap);
            assert!(s.update_us() > 0.0);
        }
        // Later thresholds fire later.
        assert!(run.swaps[1].report.swap_cycle > run.swaps[0].report.swap_cycle);
    }

    #[test]
    fn restart_warms_from_disk_with_exact_counters() {
        let dir = ScratchDir::new("reload-test");
        let run = run_restart(3, dir.path());
        assert_eq!(run.failures, 0);
        assert_eq!(run.mismatches, 0);
        let (c, w) = (&run.cold_stats, &run.warm_stats);
        assert_eq!(c.alloc_misses, 3);
        assert_eq!(c.disk_misses, 3);
        assert_eq!(c.disk_hits, 0);
        assert_eq!(w.disk_hits, 3);
        assert_eq!(w.alloc_hits, 3);
        assert_eq!(w.alloc_misses, 0);
        assert_eq!(w.disk_rejects, 0);
    }

    #[test]
    fn reload_json_carries_the_gated_keys() {
        let dir = ScratchDir::new("reload-json-test");
        let hot = run_hot_reload(90, 64, &[30]);
        let restart = run_restart(2, dir.path());
        let doc = Json::parse(&reload_json(&hot, &restart).pretty()).unwrap();
        let hot_doc = doc.get("hot").expect("hot");
        let sim_packets = hot_doc.get("sim").unwrap().num("packets").unwrap();
        assert!(sim_packets > 0.0 && sim_packets <= 90.0);
        let swap = &hot_doc.get("swaps").unwrap().as_arr().unwrap()[0];
        assert!(swap.num("update_cycles").unwrap() > 0.0);
        let restart_doc = doc.get("restart").expect("restart");
        assert_eq!(
            restart_doc.get("warm_counters").unwrap().num("disk_hits"),
            Some(2.0)
        );
        assert_eq!(restart_doc.num("mismatches"), Some(0.0));
    }
}
