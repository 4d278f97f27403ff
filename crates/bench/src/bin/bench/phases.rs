//! `bench phases` (E11) — per-phase time/allocation report for the
//! whole pipeline.
//!
//! Compiles AES and NAT through [`nova::compile`] with a recording
//! observer, runs the result on the chip-level simulator through
//! [`nova::simulate_chip_with`] against the same observer, and renders
//! where the wall time and heap traffic went for each of the five
//! pipeline stages (`frontend`, `cps`, `ilp`, `codegen`, `sim`). The
//! `ilp` stage is additionally broken down into `ilp.model` (CSR model
//! generation), `ilp.presolve` (reductions + cutting planes), and
//! `ilp.solve` (root relaxation + tree search) sub-rows; the `ilp`
//! total sums its disjoint spans (`phase.ilp` facts/freq,
//! `phase.ilp.model`, and the `phase.ilp.stage` attempts, inside which
//! presolve/solve nest).
//! Results land in `BENCH_phases.json`; CI regenerates the file as
//! `BENCH_phases.ci.json` and `bench gate` diffs the deterministic
//! counters against the checked-in baseline. The smoke point is NAT.
//!
//! Wall times come from the observability spans. Heap traffic comes
//! from a counting global allocator snapshotted by a tee'd recorder
//! each time a `phase.*` span closes, attributing the bytes allocated
//! since the previous phase boundary; phases run sequentially, so the
//! attribution is exact up to the recorder's own bookkeeping.
//!
//! The compile runs at an exact gap so the gated counters (pivots, simulated cycles/packets) are bit-identical
//! across hosts and reruns.

use bench::json::Json;
use bench::{setup_memory, table, Benchmark};
use nova::{
    simulate_chip, simulate_chip_with, ChipConfig, CompileConfig, Event, EventKind, MemoryRecorder,
    Obs, Recorder, SimMode, TeeRecorder,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
/// Set by [`run`]: the allocator is process-wide, and the other
/// scenarios' host rates should not pay for two contended counters.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// System allocator wrapped with relaxed byte/call counters.
struct CountingAlloc;

// SAFETY: every call forwards its arguments unchanged to `System`; the
// counters are statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Attributes allocator traffic to pipeline stages: every time a
/// `phase.*` span closes, the bytes/calls since the previous phase
/// boundary belong to that phase. Same-name phases (codegen closes once
/// for selection, once for the backend) accumulate.
#[derive(Default)]
struct PhaseAllocRecorder {
    state: Mutex<PhaseAllocState>,
}

#[derive(Default)]
struct PhaseAllocState {
    last_bytes: u64,
    last_count: u64,
    rows: Vec<(String, u64, u64)>,
}

impl PhaseAllocRecorder {
    /// Start attribution at the allocator's current position.
    fn rebase(&self) {
        let mut st = self.state.lock().unwrap();
        st.last_bytes = ALLOC_BYTES.load(Ordering::Relaxed);
        st.last_count = ALLOC_COUNT.load(Ordering::Relaxed);
    }

    /// (phase name, bytes, allocation calls), summed by phase.
    fn totals(&self) -> Vec<(String, u64, u64)> {
        let st = self.state.lock().unwrap();
        let mut out: Vec<(String, u64, u64)> = Vec::new();
        for (name, bytes, count) in &st.rows {
            match out.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, b, c)) => {
                    *b += bytes;
                    *c += count;
                }
                None => out.push((name.clone(), *bytes, *count)),
            }
        }
        out
    }
}

impl Recorder for PhaseAllocRecorder {
    fn record(&self, event: Event) {
        if !matches!(event.kind, EventKind::Span { .. }) {
            return;
        }
        let Some(phase) = event.name.strip_prefix("phase.") else {
            return;
        };
        let bytes = ALLOC_BYTES.load(Ordering::Relaxed);
        let count = ALLOC_COUNT.load(Ordering::Relaxed);
        let mut st = self.state.lock().unwrap();
        let (db, dc) = (bytes - st.last_bytes, count - st.last_count);
        st.last_bytes = bytes;
        st.last_count = count;
        let phase = phase.to_string();
        st.rows.push((phase, db, dc));
    }
}

const PACKETS: usize = 64;
const PHASES: [&str; 5] = ["frontend", "cps", "ilp", "codegen", "sim"];

/// Shape of the `sim.host_rate` measurement: the compiled program over a
/// paced arrival schedule — one packet every [`RATE_GAP`] cycles, so the
/// chip is mostly idle and the event-driven fast path has dead epochs to
/// skip, which is exactly the workload shape of the traffic harness.
const RATE_PACKETS: usize = 1024;
const RATE_GAP: u64 = 2048;

/// The modeled outcome of a host-rate run — everything that must be
/// bit-identical across scheduler modes.
type ModeStory = (u64, u64, Vec<(u32, u32, u64)>);

/// Host wall time and simulation rate of one scheduler mode over the
/// paced schedule. Returns the JSON row plus the modeled outcome for the
/// cross-mode equality check.
fn host_rate_row(
    b: Benchmark,
    prog: &ixp_machine::Program<ixp_machine::PhysReg>,
    payload: u32,
    chip: &ChipConfig,
    mode: SimMode,
    name: &str,
) -> (Json, ModeStory, f64, f64) {
    let mut mem = setup_memory(b, RATE_PACKETS, payload);
    let mut arrival = 0u64;
    while let Some((len, addr)) = mem.rx_queue.pop_front() {
        arrival += RATE_GAP;
        mem.rx_arrivals.push_back((arrival, len, addr));
    }
    let chip = ChipConfig { mode, ..*chip };
    let start = std::time::Instant::now();
    let res = simulate_chip(prog, &mut mem, &chip).expect("host-rate run");
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let rate = res.cycles as f64 / wall_s;
    let row = Json::obj([
        ("mode", Json::str(name)),
        ("wall_ms", Json::Num(wall_s * 1e3)),
        ("sim_cycles_per_sec", Json::Num(rate)),
    ]);
    (
        row,
        (res.cycles, res.packets, mem.tx_log),
        wall_s * 1e3,
        rate,
    )
}

pub fn run(smoke: bool, violations: &mut Vec<String>) -> Json {
    COUNTING.store(true, Ordering::Relaxed);
    println!("Per-phase wall time and heap traffic (64 packets, full 6-engine chip)\n");
    let mut programs = Vec::new();
    let all = [(Benchmark::Aes, 16u32), (Benchmark::Nat, 64)];
    for &(b, payload) in if smoke { &all[1..] } else { &all[..] } {
        let rec = MemoryRecorder::new();
        let phase_alloc = Arc::new(PhaseAllocRecorder::default());
        phase_alloc.rebase();
        let obs = Obs::new(TeeRecorder::new(vec![
            Arc::new(rec.clone()) as Arc<dyn Recorder>,
            phase_alloc.clone() as Arc<dyn Recorder>,
        ]));
        let cfg = CompileConfig::builder()
            .solver_gap(0.0)
            .observer_handle(obs.clone())
            .build();
        let report =
            nova::compile(b.source(), &cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        let mut mem = setup_memory(b, PACKETS, payload);
        let chip = ChipConfig::default();
        let res = simulate_chip_with(&report.artifact.prog, &mut mem, &chip, &obs)
            .expect("chip simulation runs");
        let summary = rec.summary();
        let allocs = phase_alloc.totals();

        let span_ms = |name: &str| summary.span(name).map_or(0.0, |s| s.total_ns as f64 / 1e6);
        let alloc_of = |name: &str| {
            allocs
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or((0, 0), |(_, bt, c)| (*bt, *c))
        };
        let mut rows = Vec::new();
        let mut phase_json = Vec::new();
        let mut push_row = |name: &str, wall_ms: f64, bytes: u64, count: u64| {
            let alloc_mb = bytes as f64 / (1024.0 * 1024.0);
            rows.push(vec![
                name.to_string(),
                format!("{wall_ms:.2}"),
                format!("{alloc_mb:.2}"),
                format!("{count}"),
            ]);
            phase_json.push(Json::obj([
                ("name", Json::str(name)),
                ("wall_ms", Json::Num(wall_ms)),
                ("alloc_mb", Json::Num(alloc_mb)),
                ("allocs", Json::int(count as usize)),
            ]));
        };
        for phase in PHASES {
            let top_ms = summary
                .span(&format!("phase.{phase}"))
                .map(|s| s.total_ns as f64 / 1e6)
                .unwrap_or_else(|| panic!("{}: phase.{phase} never closed", b.name()));
            if phase == "ilp" {
                // The ilp phase is split across disjoint spans: liveness
                // facts and frequencies under `phase.ilp`, CSR model
                // generation under `phase.ilp.model`, and each ladder
                // attempt under `phase.ilp.stage`. The solver's
                // presolve/solve sub-spans nest *inside* the stage span,
                // so they are reported below but not added again here.
                let wall_ms = top_ms + span_ms("phase.ilp.model") + span_ms("phase.ilp.stage");
                let (bytes, count) = allocs
                    .iter()
                    .filter(|(n, _, _)| n == "ilp" || n.starts_with("ilp."))
                    .fold((0u64, 0u64), |(bt, ct), (_, db, dc)| (bt + db, ct + dc));
                push_row(phase, wall_ms, bytes, count);
                for sub in ["ilp.model", "ilp.presolve", "ilp.solve"] {
                    let (bytes, count) = alloc_of(sub);
                    push_row(sub, span_ms(&format!("phase.{sub}")), bytes, count);
                }
            } else {
                let (bytes, count) = alloc_of(phase);
                push_row(phase, top_ms, bytes, count);
            }
        }
        println!("{}:", b.name());
        println!(
            "{}",
            table(&["phase", "wall ms", "alloc MB", "allocs"], &rows)
        );

        // sim.host_rate: how fast the host simulates each scheduler mode
        // on a paced (mostly idle) schedule. The modeled outcome must be
        // identical; only the host time may differ.
        let mut host_rate = Vec::new();
        let mut stories = Vec::new();
        for (mode, name) in [
            (SimMode::FastPath, "fast_path"),
            (SimMode::CycleSlice, "cycle_slice"),
        ] {
            let (row, story, wall_ms, rate) =
                host_rate_row(b, &report.artifact.prog, payload, &chip, mode, name);
            println!(
                "  sim.host_rate {name}: {wall_ms:.1} ms host, \
                 {:.1}M sim-cycles/s ({RATE_PACKETS} paced packets)",
                rate / 1e6
            );
            host_rate.push(row);
            stories.push(story);
        }
        println!();
        if stories[0] != stories[1] {
            violations.push(format!(
                "{}: fast path diverged from the cycle-slice oracle on the host-rate run",
                b.name()
            ));
        }

        let counter = |name: &str| Json::int(summary.counter_total(name).unwrap_or(0) as usize);
        programs.push(Json::obj([
            ("name", Json::str(b.name())),
            ("payload_bytes", Json::int(payload as usize)),
            ("phases", Json::Arr(phase_json)),
            (
                "counters",
                Json::obj([
                    ("ilp.pivots", counter("ilp.pivots")),
                    ("ilp.nodes", counter("ilp.nodes")),
                    ("backend.spills", counter("backend.spills")),
                    ("backend.moves", counter("backend.moves")),
                    ("sim.cycles", counter("sim.cycles")),
                    ("sim.packets", counter("sim.packets")),
                    ("sim.instructions", counter("sim.instructions")),
                ]),
            ),
            (
                "sim",
                Json::obj([
                    ("cycles", Json::int(res.cycles as usize)),
                    ("packets", Json::int(res.packets as usize)),
                    ("mbps", Json::Num(res.mbps)),
                ]),
            ),
            ("host_rate", Json::Arr(host_rate)),
        ]));
    }
    Json::obj([
        ("bench", Json::str("phases")),
        (
            "config",
            Json::obj([
                ("packets", Json::int(PACKETS)),
                ("relative_gap", Json::Num(0.0)),
            ]),
        ),
        ("programs", Json::Arr(programs)),
    ])
}
