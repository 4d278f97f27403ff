//! Sharded multi-chip simulation: M independent IXP chips behind a
//! deterministic hash load balancer.
//!
//! The paper deploys one IXP1200 per pipeline stage; scaling the paper's
//! evaluation to "millions of users" (ROADMAP north star) means a rack of
//! them behind a flow-affine load balancer. This module models exactly
//! that: a [`crate::packets::TrafficSpec`] trace is split across chips by
//! hashing the flow id (so one flow never reorders across chips), every
//! chip runs the same program on its own host thread against its own
//! [`SimMemory`], and drop/latency statistics aggregate at the end.
//!
//! **Determinism rule:** the balancer decision is
//! `mix64(flow) % chips` — a pure function of the flow id and the chip
//! count. It must never depend on arrival order, queue depths, or any
//! other simulation state, because per-chip simulation only stays
//! bit-identical (and host-parallelizable) while each chip's input trace
//! is a pure function of the global trace.

use crate::chip::{simulate_chip, ChipConfig};
use crate::machine::SimMemory;
use crate::packets::{mix64, FlowPacket};
use crate::sim::{SimError, SimResult};
use ixp_machine::{PhysReg, Program};

/// Which chip a flow is pinned to. Pure function of `(flow, chips)`.
pub fn shard_of(flow: u64, chips: usize) -> usize {
    (mix64(flow) % chips.max(1) as u64) as usize
}

/// Parameters of a multi-chip run.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Number of chips behind the load balancer.
    pub chips: usize,
    /// Configuration applied to every chip without an override below.
    pub chip: ChipConfig,
    /// Per-chip receive buffer bound (packets); `0` means unbounded.
    /// Arrivals beyond it are tail-dropped and counted.
    pub rx_capacity: usize,
    /// Packet buffer slots per length class per chip. Slots are
    /// pre-written once and reused round-robin, so 10M-packet traces
    /// don't need 10M resident buffers. Sized up automatically to exceed
    /// the in-flight bound (`rx_capacity` + contexts), below which a
    /// queued packet's buffer could be handed out again.
    pub slots_per_class: usize,
    /// Per-shard configuration overrides `(chip_index, config)`: tests
    /// and fault campaigns can degrade exactly one shard (fewer engines,
    /// injected channel faults, a different scheduler mode) while the
    /// rest of the rack runs the baseline `chip` config. The last entry
    /// matching a shard wins.
    pub overrides: Vec<(usize, ChipConfig)>,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            chips: 2,
            chip: ChipConfig::default(),
            rx_capacity: 64,
            slots_per_class: 64,
            overrides: Vec::new(),
        }
    }
}

impl TopologyConfig {
    /// The configuration shard `shard` actually runs under.
    pub fn chip_for(&self, shard: usize) -> &ChipConfig {
        self.overrides
            .iter()
            .rev()
            .find(|(s, _)| *s == shard)
            .map_or(&self.chip, |(_, c)| c)
    }
}

/// A [`SimError`] attributed to the chip that hit it. When several chips
/// fail in one run, the lowest chip index is reported — deterministically,
/// regardless of host scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError {
    /// Index of the failing chip (lowest, if several failed).
    pub chip: usize,
    /// The underlying simulation error.
    pub error: SimError,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chip {}: {}", self.chip, self.error)
    }
}

impl std::error::Error for TopologyError {}

/// Order statistics over per-packet latencies (cycles from wire arrival
/// to transmit), computed by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Packets measured (delivered packets with a matched transmit).
    pub count: u64,
    /// Median latency in cycles.
    pub p50: u64,
    /// 90th percentile latency.
    pub p90: u64,
    /// 99th percentile latency.
    pub p99: u64,
    /// Worst observed latency.
    pub max: u64,
}

impl LatencySummary {
    pub(crate) fn from_sorted(lat: &[u64]) -> Self {
        let pick = |p: u64| -> u64 {
            if lat.is_empty() {
                return 0;
            }
            // Nearest-rank: ceil(p/100 * n) is 1-based.
            let rank = (p * lat.len() as u64).div_ceil(100).max(1) as usize;
            lat[rank.min(lat.len()) - 1]
        };
        LatencySummary {
            count: lat.len() as u64,
            p50: pick(50),
            p90: pick(90),
            p99: pick(99),
            max: lat.last().copied().unwrap_or(0),
        }
    }
}

/// One chip's share of a topology run.
#[derive(Debug, Clone)]
pub struct ChipShard {
    /// Chip index (the balancer's hash target).
    pub shard: usize,
    /// Packets the balancer steered to this chip.
    pub offered: u64,
    /// Packets the chip transmitted.
    pub delivered: u64,
    /// Packets tail-dropped at the chip's full receive buffer.
    pub dropped: u64,
    /// Latency order statistics for this chip's delivered packets.
    pub latency: LatencySummary,
    /// The chip's full simulation result.
    pub result: SimResult,
}

/// Aggregated outcome of a multi-chip run.
#[derive(Debug, Clone)]
pub struct TopologyResult {
    /// Per-chip breakdown, indexed by shard.
    pub chips: Vec<ChipShard>,
    /// Total packets in the input trace.
    pub offered: u64,
    /// Total packets transmitted across all chips.
    pub delivered: u64,
    /// Total packets tail-dropped across all chips.
    pub dropped: u64,
    /// Modeled cycles of the slowest chip (the chips run in parallel
    /// wall-clock-wise, so this is the makespan).
    pub cycles: u64,
    /// Aggregate modeled throughput: sum of per-chip Mb/s.
    pub mbps: f64,
    /// Latency order statistics pooled over every delivered packet.
    pub latency: LatencySummary,
}

/// Run `prog` on `cfg.chips` simulated chips fed by `trace` through the
/// flow-hash load balancer. `write_packet(mem, addr, bytes)` pre-writes
/// one valid packet buffer of the given on-wire length at a word address
/// — called once per slot before simulation starts, so the hook needs no
/// thread safety.
///
/// Per-chip arrival schedules preserve the trace's arrival order (the
/// balancer is flow-affine and order-independent), packet contents come
/// from round-robin slot rings per length class, and per-packet latency
/// pairs the k-th receive grant of a buffer with the k-th transmit out
/// of that buffer (transmits may start at an offset inside the slot —
/// NAT shifts the packet start forward) — exact because a slot can only
/// be re-granted after the ring wraps, which the in-flight bound
/// prevents while its previous occupant is still queued.
///
/// # Errors
///
/// Returns a [`TopologyError`] naming the failing chip (lowest index if
/// several failed) when any chip hits a [`SimError`] — which
/// [`ixp_machine::validate`] should have ruled out.
pub fn simulate_topology<F>(
    prog: &Program<PhysReg>,
    cfg: &TopologyConfig,
    trace: &[FlowPacket],
    write_packet: F,
) -> Result<TopologyResult, TopologyError>
where
    F: Fn(&mut SimMemory, u32, u32),
{
    let chips = cfg.chips.max(1);
    let mut mems = shard_memories(cfg, trace, &write_packet);

    // One host thread per chip: chips share nothing, and a whole chip run
    // is the grain at which a host thread pays for itself (one chip is
    // serial inside, see `chip.rs`).
    let results: Vec<Result<SimResult, SimError>> = std::thread::scope(|s| {
        let handles: Vec<_> = mems
            .iter_mut()
            .enumerate()
            .map(|(shard, mem)| s.spawn(move || simulate_chip(prog, mem, cfg.chip_for(shard))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut shards = Vec::with_capacity(chips);
    let mut all_lat: Vec<u64> = Vec::new();
    let mut offered = 0u64;
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut cycles = 0u64;
    let mut mbps = 0.0f64;
    // Shard order ascends, so the first error reported is always the
    // lowest failing chip index — independent of which host thread
    // finished (or failed) first.
    for (shard, (res, mem)) in results.into_iter().zip(mems.iter()).enumerate() {
        let res = res.map_err(|error| TopologyError { chip: shard, error })?;
        let lat = shard_latencies(mem);
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        let shard_offered = mem.rx_dropped + mem.rx_grants.len() as u64;
        offered += shard_offered;
        delivered += res.packets;
        dropped += mem.rx_dropped;
        cycles = cycles.max(res.cycles);
        mbps += res.mbps;
        all_lat.extend_from_slice(&lat);
        shards.push(ChipShard {
            shard,
            offered: shard_offered,
            delivered: res.packets,
            dropped: mem.rx_dropped,
            latency: LatencySummary::from_sorted(&sorted),
            result: res,
        });
    }
    // Packets still waiting in a schedule or backlog when a chip hit its
    // cycle limit were never offered to the rx unit; count them so the
    // conservation check (offered = delivered + dropped + unfinished)
    // stays visible to callers.
    for mem in &mems {
        offered += (mem.rx_arrivals.len() + mem.rx_backlog.len()) as u64;
    }
    all_lat.sort_unstable();
    Ok(TopologyResult {
        chips: shards,
        offered,
        delivered,
        dropped,
        cycles,
        mbps,
        latency: LatencySummary::from_sorted(&all_lat),
    })
}

/// Build every shard's [`SimMemory`] from the global trace (see
/// [`shard_memory`]).
pub(crate) fn shard_memories<F>(
    cfg: &TopologyConfig,
    trace: &[FlowPacket],
    write_packet: &F,
) -> Vec<SimMemory>
where
    F: Fn(&mut SimMemory, u32, u32),
{
    (0..cfg.chips.max(1))
        .map(|shard| shard_memory(cfg, trace, write_packet, shard))
        .collect()
}

/// Build one shard's [`SimMemory`] from the global trace: the balancer
/// split, length-class slot rings, and the timed arrival schedule. Shared
/// with the rollout controller so a staged re-run of one shard sees
/// byte-identical input to the topology run it is compared against.
pub(crate) fn shard_memory<F>(
    cfg: &TopologyConfig,
    trace: &[FlowPacket],
    write_packet: &F,
    shard: usize,
) -> SimMemory
where
    F: Fn(&mut SimMemory, u32, u32),
{
    let chips = cfg.chips.max(1);
    let chip = cfg.chip_for(shard);
    // A slot must not be re-granted while its previous occupant can
    // still be queued or in service: bound in-flight packets per chip.
    let in_flight = cfg.rx_capacity + chip.engines.max(1) * chip.contexts.max(1);
    let slots = cfg.slots_per_class.max(in_flight + 1) as u32;
    let mut mem = SimMemory {
        rx_capacity: cfg.rx_capacity,
        ..Default::default()
    };
    // Length classes in first-seen order; each gets a ring of
    // pre-written buffers.
    let mut classes: Vec<(u32, u32, u32)> = Vec::new(); // (bytes, base, stride)
    let mut next_base = 0u32;
    let mut ring_pos: Vec<u32> = Vec::new();
    for p in trace.iter().filter(|p| shard_of(p.flow, chips) == shard) {
        let ci = match classes.iter().position(|c| c.0 == p.bytes) {
            Some(i) => i,
            None => {
                let stride = (p.bytes.div_ceil(4) + 1) & !1; // quad-word aligned
                classes.push((p.bytes, next_base, stride));
                ring_pos.push(0);
                for s in 0..slots {
                    write_packet(&mut mem, next_base + s * stride, p.bytes);
                }
                next_base += slots * stride;
                classes.len() - 1
            }
        };
        let (bytes, base, stride) = classes[ci];
        let addr = base + ring_pos[ci] * stride;
        ring_pos[ci] = (ring_pos[ci] + 1) % slots;
        mem.rx_arrivals.push_back((p.arrival, bytes, addr));
    }
    mem
}

/// Per-grant latency of one finished chip, aligned with `rx_grants`:
/// entry *k* is the arrival-to-transmit latency of the k-th granted
/// packet, or `None` if that grant never produced a transmit (aborted in
/// flight by a cycle limit or an image swap). Grants hand out slot-ring
/// base addresses, but programs may transmit from a small offset inside
/// the buffer (NAT moves the packet start forward when the IPv6 header
/// shrinks to IPv4), so each transmit is attributed to the nearest
/// granted base at or below its address — offsets never reach the next
/// slot because the ring stride covers the whole buffer; pairing is k-th
/// grant of a base with the k-th transmit out of that base.
pub(crate) fn grant_latencies(mem: &SimMemory) -> Vec<Option<u64>> {
    use std::collections::HashMap;
    let mut bases: Vec<u32> = mem.rx_grants.iter().map(|&(a, _, _)| a).collect();
    bases.sort_unstable();
    bases.dedup();
    let mut tx_of: HashMap<u32, std::collections::VecDeque<u64>> = HashMap::new();
    for &(addr, _len, cycle) in &mem.tx_log {
        let i = bases.partition_point(|&b| b <= addr);
        if i == 0 {
            continue; // transmit from an address never granted
        }
        tx_of.entry(bases[i - 1]).or_default().push_back(cycle);
    }
    mem.rx_grants
        .iter()
        .map(|&(addr, arrival, _grant)| {
            tx_of
                .get_mut(&addr)
                .and_then(|q| q.pop_front())
                .map(|tx| tx.saturating_sub(arrival))
        })
        .collect()
}

/// Per-packet latencies of one finished chip: the matched grants of
/// [`grant_latencies`]. Grants carry the packet's true wire arrival, so
/// `latency = tx_cycle - arrival` includes queueing delay in the receive
/// buffer.
fn shard_latencies(mem: &SimMemory) -> Vec<u64> {
    grant_latencies(mem).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packets::TrafficSpec;
    use crate::sim::{SimMode, StopReason};
    use ixp_machine::{Addr, Bank, Block, BlockId, Instr, MemSpace, Terminator};

    fn r(bank: Bank, n: u8) -> PhysReg {
        PhysReg::new(bank, n)
    }

    /// rx -> read sdram burst -> tx, until the stream ends.
    fn forwarder() -> Program<PhysReg> {
        Program {
            blocks: vec![Block {
                instrs: vec![
                    Instr::RxPacket {
                        len_dst: r(Bank::A, 0),
                        addr_dst: r(Bank::A, 1),
                    },
                    Instr::MemRead {
                        space: MemSpace::Sdram,
                        addr: Addr::Reg(r(Bank::A, 1), 0),
                        dst: vec![r(Bank::Ld, 0), r(Bank::Ld, 1)],
                    },
                    Instr::TxPacket {
                        addr: r(Bank::A, 1),
                        len: r(Bank::A, 0),
                    },
                ],
                term: Terminator::Jump(BlockId(0)),
            }],
            entry: BlockId(0),
        }
    }

    fn small_cfg(chips: usize, mode: SimMode) -> TopologyConfig {
        TopologyConfig {
            chips,
            chip: ChipConfig {
                engines: 2,
                contexts: 2,
                mode,
                ..ChipConfig::default()
            },
            rx_capacity: 8,
            slots_per_class: 8,
            overrides: Vec::new(),
        }
    }

    fn trace(packets: usize) -> Vec<crate::packets::FlowPacket> {
        TrafficSpec {
            packets,
            flows: 32,
            ..TrafficSpec::default()
        }
        .generate()
    }

    #[test]
    fn balancer_is_flow_affine_and_covers_all_chips() {
        let t = trace(2_000);
        for p in &t {
            assert_eq!(shard_of(p.flow, 4), shard_of(p.flow, 4));
        }
        let used: std::collections::HashSet<usize> =
            t.iter().map(|p| shard_of(p.flow, 4)).collect();
        assert_eq!(used.len(), 4, "hash spreads 32 flows over 4 chips");
    }

    #[test]
    fn topology_conserves_packets_and_measures_latency() {
        let t = trace(600);
        let res = simulate_topology(
            &forwarder(),
            &small_cfg(3, SimMode::FastPath),
            &t,
            |m, a, b| {
                m.write(MemSpace::Sdram, a, b);
            },
        )
        .unwrap();
        assert_eq!(res.offered, 600);
        assert_eq!(
            res.delivered + res.dropped,
            res.offered,
            "finished run: every offered packet was delivered or dropped"
        );
        assert!(res
            .chips
            .iter()
            .all(|c| c.result.stop == StopReason::AllHalted));
        assert_eq!(res.latency.count, res.delivered);
        assert!(res.latency.p50 <= res.latency.p99);
        assert!(res.latency.p99 <= res.latency.max);
        assert!(res.latency.p50 > 0, "forwarding takes nonzero cycles");
        assert!(res.mbps > 0.0);
    }

    #[test]
    fn both_modes_agree_on_the_whole_topology() {
        let t = trace(400);
        let run = |mode: SimMode| {
            let res = simulate_topology(&forwarder(), &small_cfg(2, mode), &t, |m, a, b| {
                m.write(MemSpace::Sdram, a, b);
            })
            .unwrap();
            (
                res.offered,
                res.delivered,
                res.dropped,
                res.cycles,
                res.latency,
                res.chips
                    .iter()
                    .map(|c| (c.offered, c.delivered, c.dropped, c.latency))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(SimMode::FastPath), run(SimMode::CycleSlice));
    }

    #[test]
    fn offset_transmits_still_pair_for_latency() {
        // NAT-style: the packet start moves forward inside the granted
        // buffer, so the transmit address is base + offset, not the
        // grant address itself.
        let shifting = Program {
            blocks: vec![Block {
                instrs: vec![
                    Instr::RxPacket {
                        len_dst: r(Bank::A, 0),
                        addr_dst: r(Bank::A, 1),
                    },
                    Instr::Alu {
                        op: ixp_machine::AluOp::Add,
                        dst: r(Bank::A, 2),
                        a: r(Bank::A, 1),
                        b: ixp_machine::AluSrc::Imm(5),
                    },
                    Instr::TxPacket {
                        addr: r(Bank::A, 2),
                        len: r(Bank::A, 0),
                    },
                ],
                term: Terminator::Jump(BlockId(0)),
            }],
            entry: BlockId(0),
        };
        let t = trace(400);
        let res = simulate_topology(
            &shifting,
            &small_cfg(2, SimMode::FastPath),
            &t,
            |m, a, b| {
                m.write(MemSpace::Sdram, a, b);
            },
        )
        .unwrap();
        assert_eq!(res.latency.count, res.delivered);
        assert!(res.latency.p50 > 0);
    }

    #[test]
    fn per_shard_override_degrades_exactly_one_chip() {
        let t = trace(400);
        let mut cfg = small_cfg(2, SimMode::FastPath);
        // Shard 0 gets a starvation-level cycle budget; shard 1 runs the
        // baseline config and must be unaffected.
        cfg.overrides.push((
            0,
            ChipConfig {
                engines: 2,
                contexts: 2,
                max_cycles: 2_000,
                mode: SimMode::FastPath,
                ..ChipConfig::default()
            },
        ));
        let res = simulate_topology(&forwarder(), &cfg, &t, |m, a, b| {
            m.write(MemSpace::Sdram, a, b);
        })
        .unwrap();
        assert_eq!(res.chips[0].result.stop, StopReason::CycleLimit);
        assert_eq!(res.chips[1].result.stop, StopReason::AllHalted);
        let baseline = simulate_topology(
            &forwarder(),
            &small_cfg(2, SimMode::FastPath),
            &t,
            |m, a, b| {
                m.write(MemSpace::Sdram, a, b);
            },
        )
        .unwrap();
        assert_eq!(
            res.chips[1].delivered, baseline.chips[1].delivered,
            "the un-overridden shard is untouched"
        );
    }

    #[test]
    fn errors_name_the_lowest_failing_chip() {
        // Every chip hits the same bad jump target; the error must still
        // deterministically name chip 0.
        let bad = Program {
            blocks: vec![Block {
                instrs: vec![],
                term: Terminator::Jump(BlockId(7)),
            }],
            entry: BlockId(0),
        };
        let t = trace(200);
        let err = simulate_topology(&bad, &small_cfg(4, SimMode::FastPath), &t, |m, a, b| {
            m.write(MemSpace::Sdram, a, b);
        })
        .unwrap_err();
        assert_eq!(err.chip, 0);
        assert!(matches!(err.error, SimError::BadTarget(_)));
        assert!(err.to_string().starts_with("chip 0:"));
    }

    #[test]
    fn more_chips_never_deliver_fewer_packets() {
        let t = trace(1_000);
        let delivered = |chips: usize| {
            simulate_topology(
                &forwarder(),
                &small_cfg(chips, SimMode::FastPath),
                &t,
                |m, a, b| {
                    m.write(MemSpace::Sdram, a, b);
                },
            )
            .unwrap()
            .delivered
        };
        assert!(delivered(4) >= delivered(1));
    }
}
