//! The IXP1200 micro-engine instruction set, generic over the register type.
//!
//! The same [`Instr`] enum serves two phases: the back end builds flowgraphs
//! of `Instr<Temp>` (virtual registers) and the allocator rewrites them to
//! `Instr<PhysReg>` which the validator ([`crate::program`]) and simulator
//! consume. Only the opcodes the Nova compiler needs are modeled; they cover
//! the ALU, immediates, aggregate memory transactions against SRAM, SDRAM
//! and scratch, the hash unit, atomic test-and-set, CSR access, and the
//! packet-I/O intrinsics that the paper's receive/transmit scheduler
//! synchronization boils down to.

use std::fmt;

/// ALU operations (two-operand; the IXP `alu` and `alu_shf` forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `dst = a + b`
    Add,
    /// `dst = a - b`
    Sub,
    /// `dst = a & b`
    And,
    /// `dst = a & !b` (the IXP's `~AND`)
    AndNot,
    /// `dst = a | b`
    Or,
    /// `dst = a ^ b`
    Xor,
    /// `dst = a << b` (b from register or 5-bit immediate)
    Shl,
    /// `dst = a >> b` (logical)
    Shr,
    /// `dst = b` (pass-through; used for moves and zero-extension tricks)
    B,
}

impl AluOp {
    /// Evaluate the operation on 32-bit words (the simulator's semantics).
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::AndNot => a & !b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => {
                if b >= 32 {
                    0
                } else {
                    a << b
                }
            }
            AluOp::Shr => {
                if b >= 32 {
                    0
                } else {
                    a >> b
                }
            }
            AluOp::B => b,
        }
    }

    /// Mnemonic used in listings.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::AndNot => "andn",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::B => "b",
        }
    }
}

/// The second ALU operand: a register, or a shift-amount immediate (the
/// only immediate form the `alu_shf` encoding supports directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluSrc<R> {
    /// Register operand.
    Reg(R),
    /// Small immediate (shift amounts; validated `< 32`).
    Imm(u32),
}

impl<R: fmt::Display> fmt::Display for AluSrc<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AluSrc::Reg(r) => write!(f, "{r}"),
            AluSrc::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// External memory spaces reachable from a micro-engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// External SRAM: word (4-byte) addressed, via the `L`/`S` banks.
    Sram,
    /// External SDRAM: quad-word (8-byte) aligned bursts, via `LD`/`SD`.
    Sdram,
    /// On-chip scratch: word addressed, via `L`/`S`, lower latency than SRAM.
    Scratch,
}

impl MemSpace {
    /// Lower-case name used in listings ("sram", "sdram", "scratch").
    pub fn name(self) -> &'static str {
        match self {
            MemSpace::Sram => "sram",
            MemSpace::Sdram => "sdram",
            MemSpace::Scratch => "scratch",
        }
    }

    /// Legal aggregate sizes (register counts) for one transaction.
    pub fn burst_ok(self, n: usize) -> bool {
        match self {
            // SRAM and scratch move 1..=8 words per instruction.
            MemSpace::Sram | MemSpace::Scratch => (1..=8).contains(&n),
            // SDRAM transactions are an even number of words (quad-words).
            MemSpace::Sdram => matches!(n, 2 | 4 | 6 | 8),
        }
    }
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The context-number CSR: reading it yields the executing hardware
/// context's chip-global index (`engine * contexts_per_engine + context`).
/// It is context-local
/// state — reads resolve in one cycle without touching the shared CSR
/// bus — and writes to it are ignored. The register allocator's spill
/// code reads it to address a per-context spill region in scratch, so
/// the same program image runs on any number of contexts without the
/// contexts clobbering each other's slots.
pub const CSR_CTX: u32 = 0xFF;

/// Addressing: a base register plus a constant word offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Addr<R> {
    /// Absolute constant address (words).
    Imm(u32),
    /// Register plus constant offset (words).
    Reg(R, u32),
}

impl<R: fmt::Display> fmt::Display for Addr<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Imm(a) => write!(f, "[{a}]"),
            Addr::Reg(r, 0) => write!(f, "[{r}]"),
            Addr::Reg(r, o) => write!(f, "[{r}+{o}]"),
        }
    }
}

impl<R> Addr<R> {
    /// The base register, if any.
    pub fn base(&self) -> Option<&R> {
        match self {
            Addr::Imm(_) => None,
            Addr::Reg(r, _) => Some(r),
        }
    }

    /// Map the register type.
    pub fn map<S>(self, f: &mut impl FnMut(R) -> S) -> Addr<S> {
        match self {
            Addr::Imm(a) => Addr::Imm(a),
            Addr::Reg(r, o) => Addr::Reg(f(r), o),
        }
    }
}

/// One micro-engine instruction, generic over the register name type `R`
/// ([`crate::Temp`] before allocation, [`crate::PhysReg`] after).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instr<R> {
    /// `dst = a op b`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: R,
        /// First operand.
        a: R,
        /// Second operand (register or shift immediate).
        b: AluSrc<R>,
    },
    /// Load a 32-bit constant (`immed`; costs 2 cycles if the value needs
    /// both halves).
    Imm {
        /// Destination register.
        dst: R,
        /// Constant value.
        val: u32,
    },
    /// Register-to-register move (an `alu b` in disguise, but kept distinct
    /// because the allocator inserts and counts these).
    Move {
        /// Destination register.
        dst: R,
        /// Source register.
        src: R,
    },
    /// The SSU `clone` pseudo-instruction (§4.5/§10): semantically a copy,
    /// but clones may share a register. Virtual code only; the allocator
    /// either erases it (same register) or materializes a `Move`.
    Clone {
        /// Clone destination.
        dst: R,
        /// Clone source.
        src: R,
    },
    /// Aggregate memory read: `dst[0..n] = mem[addr..addr+n]`. Destinations
    /// must be consecutive registers of the load transfer bank (`L` for
    /// SRAM/scratch, `LD` for SDRAM).
    MemRead {
        /// Which memory.
        space: MemSpace,
        /// Word address of the first element.
        addr: Addr<R>,
        /// Destination registers, ascending.
        dst: Vec<R>,
    },
    /// Aggregate memory write from consecutive store-transfer registers.
    MemWrite {
        /// Which memory.
        space: MemSpace,
        /// Word address of the first element.
        addr: Addr<R>,
        /// Source registers, ascending.
        src: Vec<R>,
    },
    /// Hardware hash unit: `dst = hash(src)`. `dst` lives in `L`, `src` in
    /// `S`, and both must carry the *same register number* (the paper's
    /// `SameReg` constraint).
    Hash {
        /// Result (in `L`).
        dst: R,
        /// Input (in `S`).
        src: R,
    },
    /// Atomic SRAM bit-test-and-set: old word returned in `dst` (in `L`),
    /// modifier taken from `src` (in `S`), same register number.
    TestAndSet {
        /// Old value destination (in `L`).
        dst: R,
        /// Modifier source (in `S`).
        src: R,
        /// Word address.
        addr: Addr<R>,
    },
    /// Read a control/status register into a GP register.
    CsrRead {
        /// Destination.
        dst: R,
        /// CSR number.
        csr: u32,
    },
    /// Write a control/status register.
    CsrWrite {
        /// Source register.
        src: R,
        /// CSR number.
        csr: u32,
    },
    /// Receive-scheduler synchronization: block until a packet has been
    /// DMA'd into SDRAM; yields its byte length and SDRAM word address.
    RxPacket {
        /// Receives the packet length in bytes.
        len_dst: R,
        /// Receives the SDRAM word address of the packet start.
        addr_dst: R,
    },
    /// Transmit-scheduler synchronization: hand a packet (SDRAM address +
    /// byte length) to the transmit FIFO.
    TxPacket {
        /// SDRAM word address of the packet.
        addr: R,
        /// Length in bytes.
        len: R,
    },
    /// Voluntary context swap (`ctx_arb`): lets another thread run.
    CtxSwap,
}

impl<R> Instr<R> {
    /// Registers read by this instruction.
    pub fn uses(&self) -> Vec<&R> {
        let mut v = Vec::new();
        match self {
            Instr::Alu { a, b, .. } => {
                v.push(a);
                if let AluSrc::Reg(r) = b {
                    v.push(r);
                }
            }
            Instr::Imm { .. } => {}
            Instr::Move { src, .. } | Instr::Clone { src, .. } => v.push(src),
            Instr::MemRead { addr, .. } => v.extend(addr.base()),
            Instr::MemWrite { addr, src, .. } => {
                v.extend(addr.base());
                v.extend(src.iter());
            }
            Instr::Hash { src, .. } => v.push(src),
            Instr::TestAndSet { src, addr, .. } => {
                v.push(src);
                v.extend(addr.base());
            }
            Instr::CsrRead { .. } => {}
            Instr::CsrWrite { src, .. } => v.push(src),
            Instr::RxPacket { .. } => {}
            Instr::TxPacket { addr, len } => {
                v.push(addr);
                v.push(len);
            }
            Instr::CtxSwap => {}
        }
        v
    }

    /// Registers written by this instruction.
    pub fn defs(&self) -> Vec<&R> {
        let mut v = Vec::new();
        match self {
            Instr::Alu { dst, .. }
            | Instr::Imm { dst, .. }
            | Instr::Move { dst, .. }
            | Instr::Clone { dst, .. }
            | Instr::Hash { dst, .. }
            | Instr::TestAndSet { dst, .. }
            | Instr::CsrRead { dst, .. } => v.push(dst),
            Instr::MemRead { dst, .. } => v.extend(dst.iter()),
            Instr::RxPacket { len_dst, addr_dst } => {
                v.push(len_dst);
                v.push(addr_dst);
            }
            _ => {}
        }
        v
    }

    /// Map the register type (used by the allocator to substitute physical
    /// registers for temporaries).
    pub fn map<S>(self, f: &mut impl FnMut(R) -> S) -> Instr<S> {
        match self {
            Instr::Alu { op, dst, a, b } => Instr::Alu {
                op,
                dst: f(dst),
                a: f(a),
                b: match b {
                    AluSrc::Reg(r) => AluSrc::Reg(f(r)),
                    AluSrc::Imm(v) => AluSrc::Imm(v),
                },
            },
            Instr::Imm { dst, val } => Instr::Imm { dst: f(dst), val },
            Instr::Move { dst, src } => Instr::Move {
                dst: f(dst),
                src: f(src),
            },
            Instr::Clone { dst, src } => Instr::Clone {
                dst: f(dst),
                src: f(src),
            },
            Instr::MemRead { space, addr, dst } => Instr::MemRead {
                space,
                addr: addr.map(f),
                dst: dst.into_iter().map(&mut *f).collect(),
            },
            Instr::MemWrite { space, addr, src } => Instr::MemWrite {
                space,
                addr: addr.map(f),
                src: src.into_iter().map(&mut *f).collect(),
            },
            Instr::Hash { dst, src } => Instr::Hash {
                dst: f(dst),
                src: f(src),
            },
            Instr::TestAndSet { dst, src, addr } => Instr::TestAndSet {
                dst: f(dst),
                src: f(src),
                addr: addr.map(f),
            },
            Instr::CsrRead { dst, csr } => Instr::CsrRead { dst: f(dst), csr },
            Instr::CsrWrite { src, csr } => Instr::CsrWrite { src: f(src), csr },
            Instr::RxPacket { len_dst, addr_dst } => Instr::RxPacket {
                len_dst: f(len_dst),
                addr_dst: f(addr_dst),
            },
            Instr::TxPacket { addr, len } => Instr::TxPacket {
                addr: f(addr),
                len: f(len),
            },
            Instr::CtxSwap => Instr::CtxSwap,
        }
    }

    /// Does this instruction reference external memory (and hence trigger a
    /// context swap in the threaded execution model)?
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Instr::MemRead { .. }
                | Instr::MemWrite { .. }
                | Instr::Hash { .. }
                | Instr::TestAndSet { .. }
        )
    }
}

impl<R: fmt::Display> fmt::Display for Instr<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, dst, a, b } => write!(f, "{} {dst}, {a}, {b}", op.mnemonic()),
            Instr::Imm { dst, val } => write!(f, "immed {dst}, {val:#x}"),
            Instr::Move { dst, src } => write!(f, "mov {dst}, {src}"),
            Instr::Clone { dst, src } => write!(f, "clone {dst}, {src}"),
            Instr::MemRead { space, addr, dst } => {
                write!(f, "{space}.read {addr} ->")?;
                for d in dst {
                    write!(f, " {d}")?;
                }
                Ok(())
            }
            Instr::MemWrite { space, addr, src } => {
                write!(f, "{space}.write {addr} <-")?;
                for s in src {
                    write!(f, " {s}")?;
                }
                Ok(())
            }
            Instr::Hash { dst, src } => write!(f, "hash {dst}, {src}"),
            Instr::TestAndSet { dst, src, addr } => write!(f, "tstset {dst}, {src}, {addr}"),
            Instr::CsrRead { dst, csr } => write!(f, "csr_rd {dst}, {csr}"),
            Instr::CsrWrite { src, csr } => write!(f, "csr_wr {src}, {csr}"),
            Instr::RxPacket { len_dst, addr_dst } => write!(f, "rx_packet {len_dst}, {addr_dst}"),
            Instr::TxPacket { addr, len } => write!(f, "tx_packet {addr}, {len}"),
            Instr::CtxSwap => write!(f, "ctx_arb"),
        }
    }
}

/// Branch conditions for block terminators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b` (unsigned)
    Lt,
    /// `a <= b` (unsigned)
    Le,
    /// `a > b` (unsigned)
    Gt,
    /// `a >= b` (unsigned)
    Ge,
}

impl Cond {
    /// Evaluate on 32-bit unsigned words.
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }

    /// The condition with operands swapped (`a op b` ⇔ `b op.swap() a`).
    pub fn swap(self) -> Cond {
        match self {
            Cond::Eq => Cond::Eq,
            Cond::Ne => Cond::Ne,
            Cond::Lt => Cond::Gt,
            Cond::Le => Cond::Ge,
            Cond::Gt => Cond::Lt,
            Cond::Ge => Cond::Le,
        }
    }

    /// The negated condition (`!(a op b)` ⇔ `a op.negate() b`).
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }

    /// Mnemonic ("eq", "ne", ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.eval(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.eval(0, 1), u32::MAX);
        assert_eq!(AluOp::AndNot.eval(0b1111, 0b0101), 0b1010);
        assert_eq!(AluOp::Shl.eval(1, 31), 1 << 31);
        assert_eq!(AluOp::Shl.eval(1, 32), 0);
        assert_eq!(AluOp::Shr.eval(0x8000_0000, 31), 1);
        assert_eq!(AluOp::B.eval(7, 9), 9);
    }

    #[test]
    fn cond_laws() {
        let pairs = [(3u32, 5u32), (5, 3), (4, 4), (0, u32::MAX)];
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            for (a, b) in pairs {
                assert_eq!(c.eval(a, b), c.swap().eval(b, a), "{c:?} swap");
                assert_eq!(c.eval(a, b), !c.negate().eval(a, b), "{c:?} negate");
            }
        }
    }

    #[test]
    fn uses_and_defs() {
        use crate::reg::Temp;
        let i: Instr<Temp> = Instr::MemWrite {
            space: MemSpace::Sram,
            addr: Addr::Reg(Temp(9), 2),
            src: vec![Temp(1), Temp(2)],
        };
        let uses: Vec<u32> = i.uses().into_iter().map(|t| t.0).collect();
        assert_eq!(uses, vec![9, 1, 2]);
        assert!(i.defs().is_empty());

        let r: Instr<Temp> = Instr::MemRead {
            space: MemSpace::Sdram,
            addr: Addr::Imm(0),
            dst: vec![Temp(3), Temp(4)],
        };
        let defs: Vec<u32> = r.defs().into_iter().map(|t| t.0).collect();
        assert_eq!(defs, vec![3, 4]);
    }

    #[test]
    fn burst_rules() {
        assert!(MemSpace::Sram.burst_ok(1));
        assert!(MemSpace::Sram.burst_ok(8));
        assert!(!MemSpace::Sram.burst_ok(0));
        assert!(!MemSpace::Sram.burst_ok(9));
        assert!(MemSpace::Sdram.burst_ok(2));
        assert!(!MemSpace::Sdram.burst_ok(3));
        assert!(!MemSpace::Sdram.burst_ok(1));
    }

    #[test]
    fn map_replaces_registers() {
        use crate::reg::Temp;
        let i: Instr<Temp> = Instr::Alu {
            op: AluOp::Xor,
            dst: Temp(0),
            a: Temp(1),
            b: AluSrc::Reg(Temp(2)),
        };
        let j = i.map(&mut |t: Temp| t.0 * 10);
        match j {
            Instr::Alu {
                dst,
                a,
                b: AluSrc::Reg(b),
                ..
            } => {
                assert_eq!((dst, a, b), (0, 10, 20));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
