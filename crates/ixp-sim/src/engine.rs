//! Micro-engine state used by the interpreter ([`crate::chip`]): the
//! per-context register file, context scheduling states, and address
//! resolution.

use ixp_machine::{Addr, Bank, PhysReg};

/// One hardware context's register file (A/B general purpose plus the
/// four transfer banks).
#[derive(Debug, Clone)]
pub(crate) struct RegFile {
    a: [u32; 16],
    b: [u32; 16],
    l: [u32; 8],
    s: [u32; 8],
    ld: [u32; 8],
    sd: [u32; 8],
}

impl RegFile {
    pub(crate) fn new() -> Self {
        RegFile {
            a: [0; 16],
            b: [0; 16],
            l: [0; 8],
            s: [0; 8],
            ld: [0; 8],
            sd: [0; 8],
        }
    }

    pub(crate) fn read(&self, r: PhysReg) -> u32 {
        let i = r.num as usize;
        match r.bank {
            Bank::A => self.a[i],
            Bank::B => self.b[i],
            Bank::L => self.l[i],
            Bank::S => self.s[i],
            Bank::Ld => self.ld[i],
            Bank::Sd => self.sd[i],
        }
    }

    pub(crate) fn write(&mut self, r: PhysReg, v: u32) {
        let i = r.num as usize;
        match r.bank {
            Bank::A => self.a[i] = v,
            Bank::B => self.b[i] = v,
            Bank::L => self.l[i] = v,
            Bank::S => self.s[i] = v,
            Bank::Ld => self.ld[i] = v,
            Bank::Sd => self.sd[i] = v,
        }
    }
}

/// Scheduling state of one hardware context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ThreadState {
    /// Runnable now.
    Ready,
    /// Swapped out until the given cycle.
    Blocked(u64),
    /// Swapped out on a shared-resource request whose completion time the
    /// arbiter has not determined yet.
    Pending,
    /// Reached `halt` or parked on an empty receive queue.
    Halted,
}

pub(crate) fn resolve_addr(regs: &RegFile, addr: &Addr<PhysReg>) -> u32 {
    match addr {
        Addr::Imm(a) => *a,
        Addr::Reg(r, o) => regs.read(*r).wrapping_add(*o),
    }
}

/// Earliest wake-up among blocked contexts, `None` when nothing is
/// sleeping on a timer (everything is ready, pending at the arbiter, or
/// halted). Used by the intra-slice idle-advance path.
pub(crate) fn earliest_wake<'a, I>(states: I) -> Option<u64>
where
    I: IntoIterator<Item = &'a ThreadState>,
{
    states
        .into_iter()
        .filter_map(|s| match s {
            ThreadState::Blocked(u) => Some(*u),
            _ => None,
        })
        .min()
}

/// Advance an idle engine clock to `target`, crediting the whole span as
/// idle time. The single canonical accounting for "no context can run":
/// the intra-slice scheduler and the fast-path skip must both charge idle
/// cycles through here so the two books can never drift apart.
pub(crate) fn advance_idle(cycle: &mut u64, idle_cycles: &mut u64, target: u64) {
    debug_assert!(target >= *cycle, "idle-advance going backwards");
    *idle_cycles += target - *cycle;
    *cycle = target;
}
