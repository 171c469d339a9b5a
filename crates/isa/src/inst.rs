//! Decoded instruction descriptors for the pipeline simulator.
//!
//! The out-of-order core model (`suit-ooo`) and the synthetic workload
//! generators describe programs as streams of [`Inst`] values: an opcode
//! plus architectural register operands. The register file is abstract
//! (64 names, enough for x86-64's 16 GPRs + 16 XMM + renaming headroom in
//! the generators); the simulators only care about *dependencies*, not
//! values.

use crate::opcode::{Opcode, OpcodeClass};

/// How an instruction interacts with the memory system and the branch unit.
///
/// Derived from the opcode; split out so the pipeline model can route
/// instructions to functional units without matching on every opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// Pure register-to-register computation.
    Compute,
    /// Memory load (address from `src1`).
    Load,
    /// Memory store (address from `src1`, data from `src2`).
    Store,
    /// Control transfer.
    Branch,
}

/// A decoded instruction: opcode plus abstract register operands.
///
/// `dst` is the written register (if any); `src1`/`src2` the read registers
/// (if any). Register names are indices into an abstract 64-entry
/// architectural register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The instruction opcode.
    pub opcode: Opcode,
    /// Destination register, if the instruction writes one.
    pub dst: Option<u8>,
    /// First source register.
    pub src1: Option<u8>,
    /// Second source register.
    pub src2: Option<u8>,
}

/// Number of abstract architectural registers.
pub const ARCH_REGS: u8 = 64;

impl Inst {
    /// Creates a compute-style instruction `dst = op(src1, src2)`.
    ///
    /// # Panics
    ///
    /// Panics if any register name is out of range (`>= ARCH_REGS`).
    pub fn new(opcode: Opcode, dst: u8, src1: u8, src2: u8) -> Self {
        assert!(
            dst < ARCH_REGS && src1 < ARCH_REGS && src2 < ARCH_REGS,
            "register name out of range"
        );
        Inst {
            opcode,
            dst: Some(dst),
            src1: Some(src1),
            src2: Some(src2),
        }
    }

    /// Creates a load `dst = [src1]`.
    pub fn load(dst: u8, addr: u8) -> Self {
        assert!(
            dst < ARCH_REGS && addr < ARCH_REGS,
            "register name out of range"
        );
        Inst {
            opcode: Opcode::Load,
            dst: Some(dst),
            src1: Some(addr),
            src2: None,
        }
    }

    /// Creates a store `[addr] = data`.
    pub fn store(addr: u8, data: u8) -> Self {
        assert!(
            addr < ARCH_REGS && data < ARCH_REGS,
            "register name out of range"
        );
        Inst {
            opcode: Opcode::Store,
            dst: None,
            src1: Some(addr),
            src2: Some(data),
        }
    }

    /// Creates a conditional branch reading `src1`.
    pub fn branch(cond: u8) -> Self {
        assert!(cond < ARCH_REGS, "register name out of range");
        Inst {
            opcode: Opcode::Branch,
            dst: None,
            src1: Some(cond),
            src2: None,
        }
    }

    /// The functional-unit routing kind for this instruction.
    pub fn kind(&self) -> InstKind {
        match self.opcode {
            Opcode::Load => InstKind::Load,
            Opcode::Store => InstKind::Store,
            Opcode::Branch => InstKind::Branch,
            _ => InstKind::Compute,
        }
    }

    /// Whether this instruction belongs to the SIMD class.
    pub fn is_simd(&self) -> bool {
        self.opcode.class() == OpcodeClass::Simd
    }

    /// Iterates over the source registers that are present.
    pub fn sources(&self) -> impl Iterator<Item = u8> + '_ {
        [self.src1, self.src2].into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_operands() {
        let i = Inst::new(Opcode::Imul, 1, 2, 3);
        assert_eq!(i.dst, Some(1));
        assert_eq!(i.sources().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(i.kind(), InstKind::Compute);

        let l = Inst::load(4, 5);
        assert_eq!(l.kind(), InstKind::Load);
        assert_eq!(l.dst, Some(4));

        let s = Inst::store(6, 7);
        assert_eq!(s.kind(), InstKind::Store);
        assert_eq!(s.dst, None);

        let b = Inst::branch(8);
        assert_eq!(b.kind(), InstKind::Branch);
        assert_eq!(b.sources().count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_registers() {
        let _ = Inst::new(Opcode::Alu, ARCH_REGS, 0, 0);
    }

    #[test]
    fn simd_detection() {
        assert!(Inst::new(Opcode::Vor, 0, 1, 2).is_simd());
        assert!(!Inst::new(Opcode::Imul, 0, 1, 2).is_simd());
    }
}
