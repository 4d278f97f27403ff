//! The rule-edit stream: closed-loop clients submit classifier edits to a
//! multi-worker `nova-server`, checksum each compiled image and arm it as
//! an `ImageSwap`; afterwards every image is swapped, in order, onto one
//! running chip and the transmitted packets are checked against the Rust
//! reference classifier.
//!
//! Closed loop: each of the `pins.lanes` clients submits its next edit
//! only when the previous one has come back, so a slower system receives
//! less load. The clients pull edit indices from one shared counter, so
//! the stream is served in order up to the width of the client pool.

use crate::gen::{self, Edit, EditKind};
use crate::pins::{self, Pins};
use crate::programs::Checks;
use crate::trace::Tracer;
use ixp_machine::{MemSpace, Program};
use ixp_sim::{
    image_checksum, simulate_chip_reload, ChipConfig, ImageSwap, SimMemory, SimMode, SwapOutcome,
};
use nova::{CacheStats, CompileOutput, Compiler, MemoryRecorder, Obs};
use nova_server::{CompileRequest, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Transmitted packets between two consecutive swaps on the reload chip.
const SWAP_GAP: u64 = 8;
/// Every n-th served edit is compared with a fresh-session cold compile.
const ARTIFACT_SAMPLE_STEP: usize = 50;

/// One served edit, as the client saw it.
pub struct Served {
    /// Host µs from `submit` to the checksummed `ImageSwap` being ready.
    pub host_us: f64,
    /// `CompileResponse::latency`: time on the worker.
    pub service_us: f64,
    /// Host µs of `image_checksum` inside `host_us`.
    pub checksum_us: f64,
    /// Whether the service answered with an image.
    pub ok: bool,
    /// The armed swap, when the pass keeps its images.
    pub swap: Option<ImageSwap>,
    /// The full artifact, kept for every [`ARTIFACT_SAMPLE_STEP`]-th edit.
    pub sampled: Option<CompileOutput>,
}

/// One pass of the whole stream through a fresh server.
pub struct StreamPass {
    pub served: Vec<Served>,
    pub wall_s: f64,
    pub stats: CacheStats,
    /// `server.*` fault counters: sheds, retries, deadline drops.
    pub faults: [u64; 3],
    /// The persist directory the pass wrote (kept for the restart replay;
    /// the caller removes it).
    pub persist_dir: PathBuf,
}

fn server_over(dir: &Path, pins: Pins, obs: Obs) -> Server {
    Server::with_observer(
        ServerConfig {
            workers: pins.lanes,
            compile: pins::compile_config(Some(dir)),
            ..ServerConfig::default()
        },
        obs,
    )
}

/// Serve `stream` once: fresh server, fresh persist directory. Only a
/// pass that `keep_images` holds on to the armed swaps and the sampled
/// artifacts (one per run does, for the checks); the others drop each
/// image once its clock has stopped, so the process's memory high-water
/// mark is set by one pass however many follow.
pub fn serve_stream(
    stream: &[Edit],
    pins: Pins,
    tracer: &Tracer,
    persist_dir: PathBuf,
    keep_images: bool,
) -> StreamPass {
    let _ = std::fs::remove_dir_all(&persist_dir);
    std::fs::create_dir_all(&persist_dir).expect("create the persist directory inside out/");
    let recorder = MemoryRecorder::new();
    let server = server_over(&persist_dir, pins, Obs::new(recorder.clone()));
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut served: Vec<(usize, Served)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..pins.lanes)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(edit) = stream.get(i) else { break };
                        mine.push((i, serve_one(&server, edit, i, tracer, keep_images)));
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    served.sort_by_key(|(i, _)| *i);
    let summary = recorder.summary();
    let counter = |name: &str| summary.counter_total(name).unwrap_or(0);
    StreamPass {
        served: served.into_iter().map(|(_, s)| s).collect(),
        wall_s,
        stats: server.cache_stats(),
        faults: [
            counter("server.overload_sheds"),
            counter("server.retries"),
            counter("server.deadline_drops"),
        ],
        persist_dir,
    }
}

fn serve_one(
    server: &Server,
    edit: &Edit,
    index: usize,
    tracer: &Tracer,
    keep_images: bool,
) -> Served {
    let id = index as u64;
    let request = CompileRequest::new(id, edit.source.clone());
    let start = Instant::now();
    let response = tracer.span("nova-server.submit", id, || server.submit(request));
    let service_us = response.latency.as_secs_f64() * 1e6;
    match response.result {
        Ok(mut out) => {
            let sum_start = Instant::now();
            let sum = tracer.span("ixp-sim.image_checksum", id, || image_checksum(&out.prog));
            let checksum_us = sum_start.elapsed().as_secs_f64() * 1e6;
            let empty = Program {
                blocks: Vec::new(),
                entry: out.prog.entry,
            };
            let image = std::mem::replace(&mut out.prog, empty);
            let swap = ImageSwap::new(id * SWAP_GAP, image).with_checksum(sum);
            let host_us = start.elapsed().as_secs_f64() * 1e6;
            // Benchmark bookkeeping, after the clock stopped: keep the
            // whole artifact of the sampled edits for the cold comparison.
            let sampled = (keep_images && index.is_multiple_of(ARTIFACT_SAMPLE_STEP)).then(|| {
                out.prog = swap.image.clone();
                out
            });
            Served {
                host_us,
                service_us,
                checksum_us,
                ok: true,
                swap: keep_images.then_some(swap),
                sampled,
            }
        }
        Err(e) => {
            eprintln!("FAILED: edit {index}: {e}");
            Served {
                host_us: start.elapsed().as_secs_f64() * 1e6,
                service_us,
                checksum_us: 0.0,
                ok: false,
                swap: None,
                sampled: None,
            }
        }
    }
}

/// What applying a pass's images to the running chip showed.
pub struct ReloadOutcome {
    /// Per edit: modeled cycles from the swap barrier to the first packet
    /// out of the new image (edit 0 boots the chip: cycle of its first
    /// packet). `None` for edits that produced no image.
    pub update_cycles: Vec<Option<u64>>,
    pub simulate_s: f64,
}

/// Boot a 2-engine chip on edit 0's image, swap every later image in at
/// its packet threshold, and check (a) every swap `Applied`, (b) every
/// transmitted packet carries the port tag of the rule set that was live
/// when it left, per [`gen::classify`].
pub fn apply_and_check(
    stream: &[Edit],
    pass: &StreamPass,
    seed: u64,
    tracer: &Tracer,
    checks: &mut Checks,
) -> ReloadOutcome {
    let mut update_cycles = vec![None; stream.len()];
    // Edits that produced an image, in order; the first boots the chip.
    let live: Vec<usize> = (0..stream.len())
        .filter(|&i| pass.served[i].swap.is_some())
        .collect();
    checks.attempted += (stream.len() - live.len()) as u64;
    checks.failed += (stream.len() - live.len()) as u64;
    let Some((&boot, rest)) = live.split_first() else {
        return ReloadOutcome {
            update_cycles,
            simulate_s: 0.0,
        };
    };
    let swaps: Vec<ImageSwap> = rest
        .iter()
        .map(|&i| {
            pass.served[i]
                .swap
                .clone()
                .expect("live edits carry a swap")
        })
        .collect();

    // Enough packets to reach the last threshold with every context's
    // in-flight packet aborted at every swap, plus a tail.
    let cfg = ChipConfig {
        engines: 2,
        contexts: 4,
        ..pins::chip_config(8, SimMode::FastPath)
    };
    let in_flight = (cfg.engines * cfg.contexts) as u64;
    let packets = (stream.len() as u64 + 1) * (SWAP_GAP + in_flight) + 64;
    let mut rng = gen::Rng::new(seed ^ 0x0515_7A95);
    let mut shape = gen::shape_rng(0x5157);
    let mut mem = SimMemory::with_sizes(64, packets as usize * 16, 128);
    let mut original = Vec::with_capacity(packets as usize);
    for p in 0..packets {
        // Aim each packet at the rule set that will be live around the
        // time it is received.
        let around = ((p / (SWAP_GAP + in_flight / 2)) as usize).min(stream.len() - 1);
        let (w0, w1) = gen::packet_words(&mut shape, &mut rng, &stream[around].rules);
        let addr = p as u32 * 16;
        mem.write(MemSpace::Sdram, addr, w0);
        mem.write(MemSpace::Sdram, addr + 1, w1);
        mem.rx_queue.push_back((64, addr));
        original.push((w0, w1));
    }

    let boot_image = &pass.served[boot]
        .swap
        .as_ref()
        .expect("boot edit is live")
        .image;
    let start = Instant::now();
    let result = tracer.span("ixp-sim.simulate_chip_reload", 0, || {
        simulate_chip_reload(boot_image, &swaps, &mut mem, &cfg)
    });
    let simulate_s = start.elapsed().as_secs_f64();
    let (_, reports) = result.expect("validated images simulate without architectural errors");

    update_cycles[boot] = mem.tx_log.first().map(|&(_, _, c)| c);
    let mut swap_cycles = Vec::with_capacity(reports.len());
    for (&i, report) in rest.iter().zip(&reports) {
        let applied = report.outcome == SwapOutcome::Applied && report.update_cycles().is_some();
        checks.check(applied, || {
            format!("edit {i}: swap resolved {:?}", report.outcome)
        });
        update_cycles[i] = report.update_cycles();
        swap_cycles.push(report.swap_cycle.unwrap_or(u64::MAX));
    }
    // A packet transmitted at cycle c left under the image of the last
    // swap whose barrier lies before c. A transmit resolved at the swap
    // barrier itself (c equal to the barrier cycle) still belongs to the
    // old image; the reload stall then keeps every context quiet for
    // thousands of cycles, so nothing else is near the boundary.
    for &(addr, _, cycle) in &mem.tx_log {
        let live_index = swap_cycles.partition_point(|&s| s < cycle);
        let rules = &stream[live[live_index]].rules;
        let (w0, w1) = original[(addr / 16) as usize];
        let expect = w1 | (gen::classify(rules, w0, w1) << 24);
        checks.check(mem.sdram[addr as usize + 1] == expect, || {
            format!(
                "packet at word {addr} (cycle {cycle}) is not tagged per rule set {}",
                live[live_index]
            )
        });
    }
    ReloadOutcome {
        update_cycles,
        simulate_s,
    }
}

/// Compare every sampled served artifact with a cold compile of the same
/// source through a fresh session: incremental recompilation must be
/// bit-identical to a cold build.
pub fn check_sampled_artifacts(stream: &[Edit], pass: &StreamPass, checks: &mut Checks) {
    for (i, served) in pass.served.iter().enumerate() {
        let Some(warm) = &served.sampled else {
            continue;
        };
        let cold = Compiler::new(pins::compile_config(None)).compile_output(&stream[i].source);
        checks.check(cold.as_ref().is_ok_and(|c| warm.artifact_eq(c)), || {
            format!("edit {i}: served artifact differs from a cold compile")
        });
    }
}

/// Restart replay: a fresh server over the pass's persist directory
/// compiles the first edit of every distinct structure again; each MILP
/// should come off disk. Returns (wall ms, the replay server's counters).
pub fn restart_replay(stream: &[Edit], pass: &StreamPass, pins: Pins) -> (f64, CacheStats) {
    let firsts: Vec<CompileRequest> = first_of_each_structure(stream)
        .into_iter()
        .map(|i| CompileRequest::new(i as u64, stream[i].source.clone()))
        .collect();
    let server = server_over(&pass.persist_dir, pins, Obs::noop());
    let start = Instant::now();
    let responses = server.submit_batch(firsts);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(responses);
    (wall_ms, server.cache_stats())
}

/// Client-observed round trips of whole-image hits: the first edit's
/// source resubmitted `n` times to a warm server. Returns per-request
/// (client µs, service µs).
pub fn image_hit_round_trips(
    stream: &[Edit],
    pass: &StreamPass,
    pins: Pins,
    n: usize,
) -> Vec<(f64, f64)> {
    let server = server_over(&pass.persist_dir, pins, Obs::noop());
    let source = &stream[0].source;
    server.submit(CompileRequest::new(0, source.clone()));
    (0..n)
        .map(|i| {
            let request = CompileRequest::new(i as u64, source.clone());
            let start = Instant::now();
            let response = server.submit(request);
            (
                start.elapsed().as_secs_f64() * 1e6,
                response.latency.as_secs_f64() * 1e6,
            )
        })
        .collect()
}

/// Bytes a persist directory holds.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| if m.is_file() { m.len() } else { 0 })
                .sum()
        })
        .unwrap_or(0)
}

/// Index of the first edit of every distinct structure in a stream —
/// the edits a cold session must run the MILP for.
pub fn first_of_each_structure(stream: &[Edit]) -> Vec<usize> {
    let mut seen = std::collections::BTreeSet::new();
    (0..stream.len())
        .filter(|&i| seen.insert(gen::structure_of(&stream[i].rules)))
        .collect()
}

/// Service latencies of the edits of one kind.
pub fn service_us_of(stream: &[Edit], pass: &StreamPass, kind: EditKind) -> Vec<f64> {
    stream
        .iter()
        .zip(&pass.served)
        .filter(|(e, _)| e.kind == kind)
        .map(|(_, s)| s.service_us)
        .collect()
}
