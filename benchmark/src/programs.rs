//! The programs the workloads compile, the packet memories they run on,
//! and the independent references their outputs are checked against:
//! `workloads::{aes, kasumi, nat}` for the paper's three programs and
//! [`crate::gen::classify`] for the generated classifiers.

use crate::gen::{self, Rng, Rule};
use ixp_machine::MemSpace;
use ixp_sim::SimMemory;
use std::borrow::Cow;
use workloads::{aes, kasumi, nat, AES_NOVA, HEADER_BYTES, HEADER_WORDS, KASUMI_NOVA, NAT_NOVA};

/// A program under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prog {
    Aes,
    Kasumi,
    Nat,
    Classifier(Vec<Rule>),
}

/// Outcome counts of a batch of independent checks. `failed` operations
/// are also printed to stderr with what was expected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

const AES_KEY: [u8; 16] = [
    0, 7, 14, 21, 28, 35, 42, 49, 56, 63, 70, 77, 84, 91, 98, 105,
];
const KASUMI_KEY: [u8; 16] = [
    5, 36, 67, 98, 129, 160, 191, 222, 253, 28, 59, 90, 121, 152, 183, 214,
];

impl Prog {
    /// Metric-name suffix (`nova.cold_ms.<name>`).
    pub fn name(&self) -> String {
        match self {
            Prog::Aes => "aes".to_string(),
            Prog::Kasumi => "kasumi".to_string(),
            Prog::Nat => "nat".to_string(),
            Prog::Classifier(rules) => format!("cls{}", rules.len()),
        }
    }

    pub fn source(&self) -> Cow<'static, str> {
        match self {
            Prog::Aes => Cow::Borrowed(AES_NOVA),
            Prog::Kasumi => Cow::Borrowed(KASUMI_NOVA),
            Prog::Nat => Cow::Borrowed(NAT_NOVA),
            Prog::Classifier(rules) => Cow::Owned(gen::classifier_source(rules)),
        }
    }

    /// Payload bytes of the packets this program is run on: one AES
    /// block, two Kasumi blocks, and a small TCP segment otherwise.
    fn payload_bytes(&self) -> u32 {
        match self {
            Prog::Aes | Prog::Kasumi => 16,
            Prog::Nat | Prog::Classifier(_) => 24,
        }
    }

    /// A memory with this program's tables loaded and `count` seeded
    /// packets written to SDRAM and pre-queued for reception (the
    /// saturated model: every packet is available from cycle 0). Returns
    /// the memory and each packet's SDRAM word address.
    pub fn packet_memory(&self, count: usize, seed: u64) -> (SimMemory, Vec<u32>) {
        let payload = self.payload_bytes();
        let total_bytes = HEADER_BYTES + payload;
        let words = total_bytes.div_ceil(4);
        let stride = (words + 1) & !1; // quad-word aligned, as PacketGen does
        let mut mem = SimMemory::with_sizes(4096, stride as usize * count.max(1), 2048);
        match self {
            Prog::Aes => aes::load_sram(&AES_KEY, |a, v| mem.write(MemSpace::Sram, a, v)),
            Prog::Kasumi => {
                let (mut sram, mut scratch) = (Vec::new(), Vec::new());
                kasumi::load_memory(
                    &KASUMI_KEY,
                    |a, v| sram.push((a, v)),
                    |a, v| scratch.push((a, v)),
                );
                for (a, v) in sram {
                    mem.write(MemSpace::Sram, a, v);
                }
                for (a, v) in scratch {
                    mem.write(MemSpace::Scratch, a, v);
                }
            }
            Prog::Nat | Prog::Classifier(_) => {}
        }
        let mut rng = Rng::new(seed ^ 0x00C0_FFEE);
        let mut shape = gen::shape_rng(0x9AC7);
        let mut addrs = Vec::with_capacity(count);
        for i in 0..count as u32 {
            let base = i * stride;
            for w in 0..words {
                mem.write(MemSpace::Sdram, base + w, rng.next_u32());
            }
            match self {
                // Valid fast-path header: IPv4, TCP, TTL 64.
                Prog::Aes | Prog::Kasumi => {
                    mem.write(
                        MemSpace::Sdram,
                        base,
                        (4 << 28) | (5 << 24) | (total_bytes & 0xFFFF),
                    );
                    mem.write(MemSpace::Sdram, base + 1, (64 << 24) | (6 << 16));
                }
                Prog::Nat => {
                    let hdr = nat::Ipv6Header {
                        version: 6,
                        traffic_class: rng.next_u32() & 0xFF,
                        flow: rng.next_u32() & 0xF_FFFF,
                        payload_len: payload + 16, // TCP header + payload
                        next_header: 6,
                        hop_limit: 64,
                        src: [0x2001_0DB8, 0, 0, rng.next_u32()],
                        dst: [0x2001_0DB8, 0, 1, rng.next_u32()],
                    };
                    for (k, w) in hdr.pack().iter().enumerate() {
                        mem.write(MemSpace::Sdram, base + k as u32, *w);
                    }
                }
                Prog::Classifier(rules) => {
                    let (w0, w1) = gen::packet_words(&mut shape, &mut rng, rules);
                    mem.write(MemSpace::Sdram, base, w0);
                    mem.write(MemSpace::Sdram, base + 1, w1);
                }
            }
            mem.rx_queue.push_back((total_bytes, base));
            addrs.push(base);
        }
        (mem, addrs)
    }

    /// Check every `step`-th packet of a finished run against the Rust
    /// reference: `before` is the SDRAM as generated, `after` the memory
    /// the simulator left. One checked operation per packet.
    pub fn check_outputs(
        &self,
        before: &[u32],
        after: &SimMemory,
        addrs: &[u32],
        step: usize,
        checks: &mut Checks,
    ) {
        let payload_words = (self.payload_bytes() / 4) as usize;
        let hdr = HEADER_WORDS as usize;
        let name = self.name();
        // Key material is expanded once, not per packet.
        let aes_rk = aes::expand_key(&AES_KEY);
        let kasumi_tables = matches!(self, Prog::Kasumi).then(|| {
            (
                kasumi::key_schedule(&KASUMI_KEY),
                kasumi::s7_table(),
                kasumi::s9_table(),
            )
        });
        for &addr in addrs.iter().step_by(step.max(1)) {
            let a = addr as usize;
            let payload = a + hdr..a + hdr + payload_words;
            // Ciphertext in place, and its folded checksum in the last
            // header word.
            let crypto_ok = |expect: &[u32]| {
                after.sdram[payload.clone()] == *expect
                    && after.sdram[a + hdr - 1] == folded_checksum(expect)
            };
            let ok = match self {
                Prog::Aes => {
                    let mut expect = before[payload.clone()].to_vec();
                    aes::encrypt_words(&mut expect, &aes_rk);
                    crypto_ok(&expect)
                }
                Prog::Kasumi => {
                    let (sk, s7, s9) = kasumi_tables.as_ref().expect("built for Kasumi above");
                    let mut expect = before[payload.clone()].to_vec();
                    kasumi::encrypt_words(&mut expect, sk, s7, s9);
                    crypto_ok(&expect)
                }
                Prog::Nat => {
                    let mut expect = before[a..a + 10].to_vec();
                    nat::translate_packet(&mut expect, HEADER_BYTES + self.payload_bytes());
                    after.sdram[a + 5..a + 10] == expect[5..10]
                }
                Prog::Classifier(rules) => {
                    let (w0, w1) = (before[a], before[a + 1]);
                    after.sdram[a + 1] == w1 | (gen::classify(rules, w0, w1) << 24)
                }
            };
            checks.check(ok, || {
                format!("{name}: packet at word {addr} differs from the reference")
            });
        }
    }
}

/// The TCP-style ones-complement sum the crypto programs maintain in the
/// last header word.
fn folded_checksum(words: &[u32]) -> u32 {
    let s: u32 = words.iter().map(|w| (w >> 16) + (w & 0xFFFF)).sum();
    let s = (s & 0xFFFF) + (s >> 16);
    (s & 0xFFFF) + (s >> 16)
}

/// `write_packet` hook for topology and rollout runs of the NAT program:
/// a well-formed IPv6/TCP header whose addresses, like the payload, are
/// drawn from `(seed, addr)`.
pub fn nat_packet_writer(seed: u64) -> impl Fn(&mut SimMemory, u32, u32) {
    move |mem, addr, bytes| {
        let mut rng = Rng::new(seed ^ u64::from(addr));
        let payload_bytes = bytes.saturating_sub(HEADER_BYTES);
        let hdr = nat::Ipv6Header {
            version: 6,
            traffic_class: 0,
            flow: rng.next_u32() & 0xF_FFFF,
            payload_len: payload_bytes + 16,
            next_header: 6,
            hop_limit: 64,
            src: [0x2001_0DB8, 0, 0, rng.next_u32()],
            dst: [0x2001_0DB8, 0, 1, rng.next_u32()],
        };
        let packed = hdr.pack();
        for (i, w) in packed.iter().enumerate() {
            mem.write(MemSpace::Sdram, addr + i as u32, *w);
        }
        for i in 0..payload_bytes.div_ceil(4) {
            mem.write(
                MemSpace::Sdram,
                addr + packed.len() as u32 + i,
                rng.next_u32(),
            );
        }
    }
}

/// `write_packet` hook for topology and rollout runs of a classifier:
/// header words drawn from `(seed, addr)`; the classifier reads nothing
/// else.
pub fn classifier_packet_writer(seed: u64) -> impl Fn(&mut SimMemory, u32, u32) {
    move |mem, addr, bytes| {
        let mut rng = Rng::new(seed ^ u64::from(addr));
        mem.write(MemSpace::Sdram, addr, rng.next_u32());
        mem.write(MemSpace::Sdram, addr + 1, rng.next_u32() & gen::W1_BITS);
        // Touch the last word so the buffer exists at its full length.
        mem.write(MemSpace::Sdram, addr + bytes.div_ceil(4).max(3) - 1, 0);
    }
}
