//! Shared harness behind the `bench` CLI (`cargo run --release -p bench --
//! <scenario>`). See EXPERIMENTS.md for the experiment-to-subcommand index.

#![warn(missing_docs)]

pub mod gate;
pub mod reload;
pub mod rollout;
pub mod service;

use ixp_sim::{
    simulate_chip, simulate_topology, ChipConfig, PacketGen, PacketSpec, SimMemory, SimMode,
    TopologyConfig, TopologyResult, TrafficSpec,
};
use nova::{CompileConfig, CompileOutput, Compiler};
use workloads::{aes, kasumi, AES_NOVA, KASUMI_NOVA, NAT_NOVA};

/// The three benchmark programs of §11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Benchmark {
    /// AES Rijndael.
    Aes,
    /// Kasumi.
    Kasumi,
    /// IPv6→IPv4 NAT.
    Nat,
}

impl Benchmark {
    /// All three, in the paper's order.
    pub const ALL: [Benchmark; 3] = [Benchmark::Aes, Benchmark::Kasumi, Benchmark::Nat];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Aes => "AES",
            Benchmark::Kasumi => "Kasumi",
            Benchmark::Nat => "NAT",
        }
    }

    /// Nova source text.
    pub fn source(self) -> &'static str {
        match self {
            Benchmark::Aes => AES_NOVA,
            Benchmark::Kasumi => KASUMI_NOVA,
            Benchmark::Nat => NAT_NOVA,
        }
    }
}

/// Compile a benchmark with the given configuration.
///
/// # Panics
///
/// Panics on compile errors — the sources are fixed and known-good.
pub fn compile(b: Benchmark, config: &CompileConfig) -> CompileOutput {
    Compiler::new(config.clone())
        .compile_output(b.source())
        .unwrap_or_else(|e| panic!("{}: {e}", b.name()))
}

/// Set up the memory a benchmark expects (tables, keys) and fill the
/// receive queue with `count` packets of `payload_bytes` payload.
pub fn setup_memory(b: Benchmark, count: usize, payload_bytes: u32) -> SimMemory {
    let mut mem = SimMemory::with_sizes(4096, 1 << 20, 2048);
    match b {
        Benchmark::Aes => {
            let key: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(7));
            aes::load_sram(&key, |a, v| mem.sram[a as usize] = v);
        }
        Benchmark::Kasumi => {
            let key: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(13));
            let (mut s, mut c) = (Vec::new(), Vec::new());
            kasumi::load_memory(&key, |a, v| s.push((a, v)), |a, v| c.push((a, v)));
            for (a, v) in s {
                mem.sram[a as usize] = v;
            }
            for (a, v) in c {
                mem.scratch[a as usize] = v;
            }
        }
        Benchmark::Nat => {
            // NAT's packets need valid IPv6 headers; overwrite the header
            // words after generation below.
        }
    }
    let mut gen = PacketGen::new(0xFEED + payload_bytes as u64);
    let spec = PacketSpec {
        count,
        payload_bytes,
        header_bytes: workloads::HEADER_BYTES,
        seed: 42 + payload_bytes as u64,
    };
    let addrs = gen.generate(&mut mem, &spec);
    // Give every packet the fast-path header the programs expect
    // (IPv4/TCP-ish first two words for AES/Kasumi).
    if b != Benchmark::Nat {
        for a in &addrs {
            let total = spec.header_bytes + spec.payload_bytes;
            mem.sdram[*a as usize] = (4 << 28) | (5 << 24) | (total & 0xFFFF);
            mem.sdram[*a as usize + 1] = (64 << 24) | (6 << 16);
        }
    }
    if b == Benchmark::Nat {
        // Give every packet a well-formed IPv6/TCP header.
        for a in addrs {
            let hdr = workloads::nat::Ipv6Header {
                version: 6,
                traffic_class: 0,
                flow: 0x12345,
                payload_len: payload_bytes + 16, // TCP header + payload
                next_header: 6,
                hop_limit: 64,
                src: [0x2001_0DB8, 0, 0, 0xC0A8_0000 + a],
                dst: [0x2001_0DB8, 0, 1, 0x0A00_0000 + a],
            };
            for (i, w) in hdr.pack().iter().enumerate() {
                mem.sdram[a as usize + i] = *w;
            }
        }
    }
    mem
}

/// Run a compiled benchmark over `count` packets with `payload_bytes` of
/// payload on a simulated chip of `engines` micro-engines with `contexts`
/// contexts each.
pub fn run_chip_throughput(
    b: Benchmark,
    out: &CompileOutput,
    count: usize,
    payload_bytes: u32,
    engines: usize,
    contexts: usize,
) -> ixp_sim::SimResult {
    let mut mem = setup_memory(b, count, payload_bytes);
    let cfg = ChipConfig {
        engines,
        contexts,
        max_cycles: 4_000_000_000,
        ..ChipConfig::default()
    };
    simulate_chip(&out.prog, &mut mem, &cfg).expect("chip simulation runs")
}

/// JSON view of one chip-simulation result: totals, stop reason, and the
/// per-engine / per-channel telemetry that explains the scaling knee.
pub fn chip_result_json(res: &ixp_sim::SimResult) -> json::Json {
    use json::Json;
    Json::obj([
        ("cycles", Json::int(res.cycles as usize)),
        ("instructions", Json::int(res.instructions as usize)),
        ("packets", Json::int(res.packets as usize)),
        ("bytes", Json::int(res.bytes as usize)),
        ("mbps", Json::Num(res.mbps)),
        (
            "stop",
            Json::str(match res.stop {
                ixp_sim::StopReason::AllHalted => "all-halted",
                ixp_sim::StopReason::CycleLimit => "cycle-limit",
            }),
        ),
        (
            "channels",
            Json::Arr(
                res.channels
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("space", Json::str(format!("{:?}", c.space).to_lowercase())),
                            ("reads", Json::int(c.reads as usize)),
                            ("writes", Json::int(c.writes as usize)),
                            ("busy_cycles", Json::int(c.busy_cycles as usize)),
                            ("wait_cycles", Json::int(c.wait_cycles as usize)),
                            ("max_queue_depth", Json::int(c.max_queue_depth)),
                            ("occupancy", Json::Num(c.occupancy(res.cycles))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "engines",
            Json::Arr(
                res.engines
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("engine", Json::int(e.engine)),
                            ("instructions", Json::int(e.instructions as usize)),
                            ("swap_outs", Json::int(e.swap_outs as usize)),
                            ("idle_cycles", Json::int(e.idle_cycles as usize)),
                            ("packets", Json::int(e.packets as usize)),
                            ("bytes", Json::int(e.bytes as usize)),
                            ("halt_cycle", Json::int(e.halt_cycle as usize)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The canonical traffic shape of the multi-chip harness: Zipf-popular
/// flows (s = 1.0) over four real-world packet length classes, bursty,
/// paced at ~1.8 Gb/s offered load — roughly twice what one NAT chip
/// sustains, so an under-provisioned topology visibly tail-drops and
/// queues while a sharded one keeps up. Every traffic artifact
/// (`BENCH_traffic.json`, the smoke run, E14) uses this spec so numbers
/// stay comparable across sweeps; only `packets` varies.
pub fn traffic_spec(packets: usize) -> TrafficSpec {
    TrafficSpec {
        packets,
        flows: 4096,
        zipf_s_halves: 2,
        mean_burst: 4,
        length_classes: vec![64, 200, 576, 1500],
        mean_gap: 128,
        cycles_per_byte: 1,
        seed: 0x1337_BEEF,
    }
}

/// The canonical chip/topology shape of the traffic harness: full
/// IXP1200s (6 engines x 4 contexts), a 64-packet receive buffer per
/// chip, and a coarser 32-cycle arbitration epoch — barrier count is the
/// host-time driver at traffic scale, and rx/tx quantization error stays
/// a few cycles per packet.
pub fn traffic_topology(chips: usize, mode: SimMode) -> TopologyConfig {
    TopologyConfig {
        chips,
        chip: ChipConfig {
            max_cycles: 1 << 36,
            slice: 32,
            mode,
            ..ChipConfig::default()
        },
        rx_capacity: 64,
        slots_per_class: 128,
        overrides: Vec::new(),
    }
}

/// Pre-write one valid NAT packet buffer (IPv6/TCP header + payload) of
/// `bytes` on-wire length at SDRAM word address `addr` — the
/// `write_packet` hook [`ixp_sim::simulate_topology`] wants.
pub fn write_nat_packet(mem: &mut SimMemory, addr: u32, bytes: u32) {
    let payload_bytes = bytes.saturating_sub(workloads::HEADER_BYTES);
    let hdr = workloads::nat::Ipv6Header {
        version: 6,
        traffic_class: 0,
        flow: 0x12345,
        payload_len: payload_bytes + 16, // TCP header + payload
        next_header: 6,
        hop_limit: 64,
        src: [0x2001_0DB8, 0, 0, 0xC0A8_0000 + addr],
        dst: [0x2001_0DB8, 0, 1, 0x0A00_0000 + addr],
    };
    for (i, w) in hdr.pack().iter().enumerate() {
        mem.write(ixp_machine::MemSpace::Sdram, addr + i as u32, *w);
    }
    let header_words = hdr.pack().len() as u32;
    for i in 0..payload_bytes.div_ceil(4) {
        let w = addr
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(i.wrapping_mul(0x85EB_CA6B));
        mem.write(ixp_machine::MemSpace::Sdram, addr + header_words + i, w);
    }
}

/// The microburst stress variant of [`traffic_spec`]: long bursts land
/// at line rate (no per-byte pacing), so a ~48-packet burst of one flow
/// slams a 64-slot receive buffer at once. Because the balancer is
/// flow-affine, a burst always lands on a single chip — sharding buys
/// aggregate capacity but *not* microburst absorption, which is the
/// shallow-buffer tail-drop story the drop column of E14 measures.
pub fn microburst_spec(packets: usize) -> TrafficSpec {
    TrafficSpec {
        mean_burst: 48,
        mean_gap: 4096,
        cycles_per_byte: 0,
        ..traffic_spec(packets)
    }
}

/// Run the NAT benchmark over `spec`'s trace on a sharded multi-chip
/// topology. Returns the aggregated result and the host wall time of
/// the simulation itself (trace generation excluded).
pub fn run_traffic_spec(
    out: &CompileOutput,
    spec: &TrafficSpec,
    chips: usize,
    mode: SimMode,
) -> (TopologyResult, std::time::Duration) {
    let trace = spec.generate();
    let cfg = traffic_topology(chips, mode);
    let start = std::time::Instant::now();
    let res = simulate_topology(&out.prog, &cfg, &trace, write_nat_packet)
        .expect("traffic simulation runs");
    (res, start.elapsed())
}

/// JSON view of one traffic sweep point: modeled drop/latency/throughput
/// plus the host-side simulation rate that motivated the fast path.
/// `id` keys the point for the gate (e.g. `p100000x2`,
/// `burst100000x1`).
pub fn traffic_result_json(
    id: &str,
    packets: usize,
    chips: usize,
    res: &TopologyResult,
    wall: std::time::Duration,
) -> json::Json {
    use json::Json;
    let wall_s = wall.as_secs_f64().max(1e-9);
    // Host work is proportional to the *sum* of per-chip cycles (one
    // host thread per chip, time-slicing the cores of a small CI host).
    let host_cycles: u64 = res.chips.iter().map(|c| c.result.cycles).sum();
    let lat = |l: &ixp_sim::LatencySummary| {
        Json::obj([
            ("count", Json::int(l.count as usize)),
            ("p50", Json::int(l.p50 as usize)),
            ("p90", Json::int(l.p90 as usize)),
            ("p99", Json::int(l.p99 as usize)),
            ("max", Json::int(l.max as usize)),
        ])
    };
    Json::obj([
        ("id", Json::str(id)),
        ("packets", Json::int(packets)),
        ("chips", Json::int(chips)),
        ("offered", Json::int(res.offered as usize)),
        ("delivered", Json::int(res.delivered as usize)),
        ("dropped", Json::int(res.dropped as usize)),
        ("sim_cycles", Json::int(res.cycles as usize)),
        ("mbps", Json::Num(res.mbps)),
        ("latency", lat(&res.latency)),
        ("host_wall_ms", Json::Num(wall_s * 1e3)),
        (
            "host_sim_cycles_per_sec",
            Json::Num(host_cycles as f64 / wall_s),
        ),
        (
            "host_packets_per_sec",
            Json::Num(res.delivered as f64 / wall_s),
        ),
        (
            "shards",
            Json::Arr(
                res.chips
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("shard", Json::int(c.shard)),
                            ("offered", Json::int(c.offered as usize)),
                            ("delivered", Json::int(c.delivered as usize)),
                            ("dropped", Json::int(c.dropped as usize)),
                            ("cycles", Json::int(c.result.cycles as usize)),
                            ("latency", lat(&c.latency)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Minimal JSON construction and parsing for machine-readable bench
/// artifacts (`BENCH_solver.json`, `BENCH_phases.json`). Hand-rolled
/// because the workspace carries no serde; covers exactly what the bench
/// scenarios need: objects, arrays, strings, numbers, and booleans,
/// pretty-printed with stable key order, plus a strict parser for the
/// gate that diffs checked-in baselines against fresh runs.
pub mod json {
    /// A JSON value.
    #[derive(Debug, Clone)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A finite number (non-finite values render as `null`).
        Num(f64),
        /// A string (escaped on render).
        Str(String),
        /// An ordered array.
        Arr(Vec<Json>),
        /// An object; key order is preserved as inserted.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Object from key/value pairs (order preserved).
        pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
            Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        }

        /// String value.
        pub fn str(s: impl Into<String>) -> Json {
            Json::Str(s.into())
        }

        /// Integer value (exact for |v| < 2^53).
        pub fn int(v: usize) -> Json {
            Json::Num(v as f64)
        }

        /// Parse a JSON document. Strict: rejects trailing data,
        /// comments, and unquoted keys; accepts everything [`pretty`]
        /// emits (round-trip safe).
        ///
        /// [`pretty`]: Json::pretty
        ///
        /// # Errors
        ///
        /// Returns a message with the byte offset of the first syntax
        /// error.
        pub fn parse(text: &str) -> Result<Json, String> {
            let mut p = Parser {
                b: text.as_bytes(),
                i: 0,
            };
            p.skip_ws();
            let v = p.value()?;
            p.skip_ws();
            if p.i != p.b.len() {
                return Err(format!("trailing data at byte {}", p.i));
            }
            Ok(v)
        }

        /// Member lookup on an object; `None` for other variants or a
        /// missing key.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// Numeric view.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(v) => Some(*v),
                _ => None,
            }
        }

        /// String view.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Array view.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// `self[key]` as a number (member lookup + numeric view).
        pub fn num(&self, key: &str) -> Option<f64> {
            self.get(key)?.as_f64()
        }
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", c as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.b.get(self.i) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
                _ => Err(format!("expected a JSON value at byte {}", self.i)),
            }
        }

        fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.i;
            while matches!(
                self.b.get(self.i),
                Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            ) {
                self.i += 1;
            }
            std::str::from_utf8(&self.b[start..self.i])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.b.get(self.i) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        match self.b.get(self.i) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .b
                                    .get(self.i + 1..self.i + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                                self.i += 4;
                            }
                            _ => return Err(format!("bad escape at byte {}", self.i)),
                        }
                        self.i += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (the input is a &str,
                        // so boundaries are valid).
                        let rest = std::str::from_utf8(&self.b[self.i..])
                            .map_err(|_| "invalid UTF-8".to_string())?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.i += c.len_utf8();
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.b.get(self.i) == Some(&b']') {
                self.i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                }
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut pairs = Vec::new();
            self.skip_ws();
            if self.b.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                pairs.push((key, val));
                self.skip_ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                }
            }
        }
    }

    impl Json {
        /// Render with two-space indentation and a trailing newline.
        pub fn pretty(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, 0);
            out.push('\n');
            out
        }

        fn write(&self, out: &mut String, indent: usize) {
            let pad = "  ".repeat(indent);
            let pad_in = "  ".repeat(indent + 1);
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(v) => {
                    if !v.is_finite() {
                        out.push_str("null");
                    } else if *v == v.trunc() && v.abs() < 9e15 {
                        out.push_str(&format!("{}", *v as i64));
                    } else {
                        out.push_str(&format!("{v}"));
                    }
                }
                Json::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\t' => out.push_str("\\t"),
                            '\r' => out.push_str("\\r"),
                            c if (c as u32) < 0x20 => {
                                out.push_str(&format!("\\u{:04x}", c as u32));
                            }
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Json::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push_str("[\n");
                    for (i, v) in items.iter().enumerate() {
                        out.push_str(&pad_in);
                        v.write(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    out.push_str(&pad);
                    out.push(']');
                }
                Json::Obj(pairs) => {
                    if pairs.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push_str("{\n");
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        out.push_str(&pad_in);
                        Json::Str(k.clone()).write(out, indent + 1);
                        out.push_str(": ");
                        v.write(out, indent + 1);
                        if i + 1 < pairs.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    out.push_str(&pad);
                    out.push('}');
                }
            }
        }
    }
}

/// Render a text table with aligned columns.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let mut s = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        line
    };
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    s.push_str(&fmt_row(&hdr, &widths));
    s.push('\n');
    s.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    s.push('\n');
    for r in rows {
        s.push_str(&fmt_row(r, &widths));
        s.push('\n');
    }
    s
}
