//! Shared memory and I/O state of the simulated system.

use std::collections::{HashMap, VecDeque};

/// Outcome of asking the receive scheduler for a packet at a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxGrant {
    /// A packet was granted.
    Packet {
        /// On-wire length in bytes.
        len: u32,
        /// SDRAM word address of the buffered packet.
        addr: u32,
    },
    /// No packet has arrived yet; the next scheduled arrival lands at
    /// this cycle (timed traffic only). The requester should sleep until
    /// then and retry.
    WaitUntil(u64),
    /// The stream is exhausted: no packet will ever arrive again.
    Empty,
}

/// Memories, CSRs, and packet queues shared by all threads.
#[derive(Debug, Clone, Default)]
pub struct SimMemory {
    /// External SRAM (word addressed).
    pub sram: Vec<u32>,
    /// External SDRAM (word addressed).
    pub sdram: Vec<u32>,
    /// On-chip scratch.
    pub scratch: Vec<u32>,
    /// Control/status registers.
    pub csr: HashMap<u32, u32>,
    /// Pending received packets: `(length_bytes, sdram_word_address)`.
    /// The legacy pre-loaded model: every packet is available from cycle
    /// 0 and nothing is ever dropped.
    pub rx_queue: VecDeque<(u32, u32)>,
    /// Timed traffic: future arrivals
    /// `(arrival_cycle, length_bytes, sdram_word_address)` in
    /// non-decreasing arrival order. When this schedule (or the backlog
    /// below) is non-empty, [`SimMemory::rx_grant`] models a bounded
    /// receive buffer instead of the legacy queue.
    pub rx_arrivals: VecDeque<(u64, u32, u32)>,
    /// Arrived-but-ungranted packets of the timed model, admitted from
    /// `rx_arrivals` as simulated time passes.
    pub rx_backlog: VecDeque<(u64, u32, u32)>,
    /// Bound on `rx_backlog` (timed model only); `0` means unbounded.
    /// Arrivals that find the buffer full are tail-dropped.
    pub rx_capacity: usize,
    /// Packets tail-dropped at a full receive buffer.
    pub rx_dropped: u64,
    /// Granted timed packets `(sdram_word_address, arrival_cycle,
    /// grant_cycle)` in grant order — the receive-side half of per-packet
    /// latency accounting (the transmit side is `tx_log`).
    pub rx_grants: Vec<(u32, u64, u64)>,
    /// Per-arrival admission verdicts of the timed model, in arrival
    /// order: `true` = admitted to the backlog, `false` = tail-dropped.
    /// The backlog is FIFO, so the *j*-th `true` entry is the *j*-th
    /// grant — this log joins `rx_grants` back to the original arrival
    /// schedule (and through it to flows) for per-flow disruption
    /// accounting.
    pub rx_admissions: Vec<bool>,
    /// Transmitted packets with their completion cycle:
    /// `(sdram_word_address, length_bytes, cycle)`.
    pub tx_log: Vec<(u32, u32, u64)>,
}

impl SimMemory {
    /// Zeroed memories of the given word sizes.
    pub fn with_sizes(sram: usize, sdram: usize, scratch: usize) -> Self {
        SimMemory {
            sram: vec![0; sram],
            sdram: vec![0; sdram],
            scratch: vec![0; scratch],
            ..SimMemory::default()
        }
    }

    /// Read a word from a memory space, growing it on demand.
    pub fn read(&mut self, space: ixp_machine::MemSpace, addr: u32) -> u32 {
        let m = self.space_mut(space);
        if addr as usize >= m.len() {
            m.resize(addr as usize + 1, 0);
        }
        m[addr as usize]
    }

    /// Write a word, growing the memory on demand.
    pub fn write(&mut self, space: ixp_machine::MemSpace, addr: u32, val: u32) {
        let m = self.space_mut(space);
        if addr as usize >= m.len() {
            m.resize(addr as usize + 1, 0);
        }
        m[addr as usize] = val;
    }

    /// Grant the next received packet as of simulated cycle `now`.
    ///
    /// With an empty arrival schedule this is exactly the legacy model:
    /// pop `rx_queue` or report [`RxGrant::Empty`]. With timed traffic
    /// (`rx_arrivals`/`rx_backlog` non-empty) it first admits every
    /// arrival at or before `now` into the bounded backlog — tail-dropping
    /// into `rx_dropped` when `rx_capacity` is exceeded — then grants the
    /// backlog front, or reports when the next packet lands
    /// ([`RxGrant::WaitUntil`]), or that the stream is over. Admission
    /// and grants both happen at grant instants (the rx instruction's
    /// issue cycle), which is when the simulated receive hardware is
    /// consulted; the arbiter drives it in canonical request order, so
    /// drops are deterministic.
    pub fn rx_grant(&mut self, now: u64) -> RxGrant {
        if self.rx_arrivals.is_empty() && self.rx_backlog.is_empty() {
            return match self.rx_queue.pop_front() {
                Some((len, addr)) => RxGrant::Packet { len, addr },
                None => RxGrant::Empty,
            };
        }
        while let Some(&(arrival, len, addr)) = self.rx_arrivals.front() {
            if arrival > now {
                break;
            }
            self.rx_arrivals.pop_front();
            if self.rx_capacity > 0 && self.rx_backlog.len() >= self.rx_capacity {
                self.rx_dropped += 1;
                self.rx_admissions.push(false);
            } else {
                self.rx_backlog.push_back((arrival, len, addr));
                self.rx_admissions.push(true);
            }
        }
        match self.rx_backlog.pop_front() {
            Some((arrival, len, addr)) => {
                self.rx_grants.push((addr, arrival, now));
                RxGrant::Packet { len, addr }
            }
            None => match self.rx_arrivals.front() {
                Some(&(arrival, _, _)) => RxGrant::WaitUntil(arrival),
                None => RxGrant::Empty,
            },
        }
    }

    fn space_mut(&mut self, space: ixp_machine::MemSpace) -> &mut Vec<u32> {
        match space {
            ixp_machine::MemSpace::Sram => &mut self.sram,
            ixp_machine::MemSpace::Sdram => &mut self.sdram,
            ixp_machine::MemSpace::Scratch => &mut self.scratch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_machine::MemSpace;

    #[test]
    fn memories_grow_on_demand() {
        let mut m = SimMemory::default();
        assert_eq!(m.read(MemSpace::Sram, 100), 0);
        m.write(MemSpace::Sdram, 5000, 42);
        assert_eq!(m.read(MemSpace::Sdram, 5000), 42);
    }

    #[test]
    fn empty_schedule_preserves_legacy_rx_semantics() {
        let mut m = SimMemory::default();
        m.rx_queue.push_back((64, 0));
        m.rx_queue.push_back((128, 16));
        assert_eq!(m.rx_grant(0), RxGrant::Packet { len: 64, addr: 0 });
        assert_eq!(m.rx_grant(900), RxGrant::Packet { len: 128, addr: 16 });
        assert_eq!(m.rx_grant(901), RxGrant::Empty);
        assert!(m.rx_grants.is_empty(), "legacy grants are not logged");
        assert_eq!(m.rx_dropped, 0);
    }

    #[test]
    fn timed_arrivals_wait_grant_and_exhaust() {
        let mut m = SimMemory::default();
        m.rx_arrivals.push_back((100, 64, 0));
        m.rx_arrivals.push_back((200, 64, 16));
        assert_eq!(m.rx_grant(50), RxGrant::WaitUntil(100));
        assert_eq!(m.rx_grant(100), RxGrant::Packet { len: 64, addr: 0 });
        assert_eq!(m.rx_grant(101), RxGrant::WaitUntil(200));
        assert_eq!(m.rx_grant(250), RxGrant::Packet { len: 64, addr: 16 });
        assert_eq!(m.rx_grant(251), RxGrant::Empty);
        // Grant log pairs each packet with its true arrival.
        assert_eq!(m.rx_grants, vec![(0, 100, 100), (16, 200, 250)]);
        assert_eq!(m.rx_dropped, 0);
    }

    #[test]
    fn full_receive_buffer_tail_drops_deterministically() {
        let mut m = SimMemory {
            rx_capacity: 2,
            ..Default::default()
        };
        for i in 0..5u32 {
            m.rx_arrivals.push_back((10, 64, i * 16));
        }
        // All five arrivals land before the first grant; two fit, three
        // are tail-dropped, and the survivors are the earliest arrivals.
        assert_eq!(m.rx_grant(20), RxGrant::Packet { len: 64, addr: 0 });
        assert_eq!(m.rx_dropped, 3);
        assert_eq!(m.rx_grant(21), RxGrant::Packet { len: 64, addr: 16 });
        assert_eq!(m.rx_grant(22), RxGrant::Empty);
        assert_eq!(m.rx_dropped, 3);
        // The admission log names exactly which arrivals survived.
        assert_eq!(m.rx_admissions, vec![true, true, false, false, false]);
    }

    #[test]
    fn draining_the_backlog_reopens_buffer_space() {
        let mut m = SimMemory {
            rx_capacity: 1,
            ..Default::default()
        };
        m.rx_arrivals.push_back((10, 64, 0));
        m.rx_arrivals.push_back((20, 64, 16));
        // Granting packet 0 at cycle 15 leaves the buffer empty before
        // packet 1 arrives, so nothing is dropped.
        assert_eq!(m.rx_grant(15), RxGrant::Packet { len: 64, addr: 0 });
        assert_eq!(m.rx_grant(25), RxGrant::Packet { len: 64, addr: 16 });
        assert_eq!(m.rx_dropped, 0);
    }
}
