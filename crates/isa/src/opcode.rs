//! Opcodes, opcode classes, and the faultable-instruction set of Table 1.
//!
//! The paper's Table 1 lists the instructions Kogler et al. observed to
//! produce undervolting-induced silent data errors, ordered by how many
//! (core, frequency, voltage-offset) combinations produced a fault. `IMUL`
//! faults first in 91.2 % of cases and is the only *high-frequency*
//! faultable instruction; the rest are SIMD instructions plus `AESENC`,
//! which occur infrequently (on SPEC CPU2017 average, once every ~5×10⁹
//! instructions).

use core::fmt;

/// The instruction opcodes modelled by the SUIT reproduction.
///
/// The first group is the faultable set of Table 1 (wildcard families such
/// as `VOR*` are collapsed into a single variant). The second group covers
/// the non-faultable instruction classes needed to describe whole-program
/// instruction streams for the simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Opcode {
    // --- Faultable set (Table 1), most- to least-frequently faulting ---
    /// Integer multiply (`IMUL`/`MUL`). The only high-frequency faultable
    /// instruction; SUIT hardens it statically instead of trapping it.
    Imul,
    /// Vector bitwise OR family (`VOR*` / `VPOR`).
    Vor,
    /// AES round encryption (`AESENC`).
    Aesenc,
    /// Vector bitwise XOR family (`VXOR*` / `VPXOR`).
    Vxor,
    /// Vector AND-NOT family (`VANDN*`).
    Vandn,
    /// Vector bitwise AND family (`VAND*`).
    Vand,
    /// Packed double-precision square root (`VSQRTPD`).
    Vsqrtpd,
    /// Carry-less multiplication (`VPCLMULQDQ`).
    Vpclmulqdq,
    /// Packed arithmetic shift right (`VPSRAD`).
    Vpsrad,
    /// Packed compare family (`VPCMP*`).
    Vpcmp,
    /// Packed maximum family (`VPMAX*`).
    Vpmax,
    /// Packed 64-bit add (`VPADDQ`).
    Vpaddq,

    // --- Non-faultable classes used to model whole programs ---
    /// Scalar integer ALU operation (add, sub, logic, shifts, lea, ...).
    Alu,
    /// Scalar integer division (`DIV`/`IDIV`).
    Div,
    /// Scalar floating-point operation.
    Fp,
    /// Non-faultable SIMD operation (the bulk of SSE/AVX code).
    SimdOther,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional or unconditional branch/call/return.
    Branch,
    /// Anything else (no-ops, fences, system instructions, ...).
    Other,
}

impl Opcode {
    /// All opcode variants, faultable first in Table 1 order.
    pub const ALL: [Opcode; 20] = [
        Opcode::Imul,
        Opcode::Vor,
        Opcode::Aesenc,
        Opcode::Vxor,
        Opcode::Vandn,
        Opcode::Vand,
        Opcode::Vsqrtpd,
        Opcode::Vpclmulqdq,
        Opcode::Vpsrad,
        Opcode::Vpcmp,
        Opcode::Vpmax,
        Opcode::Vpaddq,
        Opcode::Alu,
        Opcode::Div,
        Opcode::Fp,
        Opcode::SimdOther,
        Opcode::Load,
        Opcode::Store,
        Opcode::Branch,
        Opcode::Other,
    ];

    /// Number of modelled opcodes.
    pub const COUNT: usize = Self::ALL.len();

    /// A dense index in `0..Opcode::COUNT`, usable for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The broad class this opcode belongs to.
    pub const fn class(self) -> OpcodeClass {
        match self {
            Opcode::Imul | Opcode::Alu | Opcode::Div => OpcodeClass::ScalarInt,
            Opcode::Fp => OpcodeClass::ScalarFp,
            Opcode::Aesenc => OpcodeClass::Crypto,
            Opcode::Vor
            | Opcode::Vxor
            | Opcode::Vandn
            | Opcode::Vand
            | Opcode::Vsqrtpd
            | Opcode::Vpclmulqdq
            | Opcode::Vpsrad
            | Opcode::Vpcmp
            | Opcode::Vpmax
            | Opcode::Vpaddq
            | Opcode::SimdOther => OpcodeClass::Simd,
            Opcode::Load | Opcode::Store => OpcodeClass::Memory,
            Opcode::Branch => OpcodeClass::Control,
            Opcode::Other => OpcodeClass::Other,
        }
    }

    /// Whether this opcode is in the faultable set of Table 1.
    #[inline]
    pub const fn is_faultable(self) -> bool {
        (self as usize) < TABLE1.len()
    }

    /// Whether the opcode is a SIMD instruction that disappears from a
    /// binary compiled without SSE/AVX support (§5.8). Everything in
    /// Table 1 except `IMUL` and `AESENC` is SIMD.
    #[inline]
    pub const fn is_simd(self) -> bool {
        matches!(self.class(), OpcodeClass::Simd)
    }

    /// The mnemonic family name as printed in the paper's Table 1.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Imul => "IMUL",
            Opcode::Vor => "VOR*",
            Opcode::Aesenc => "AESENC",
            Opcode::Vxor => "VXOR*",
            Opcode::Vandn => "VANDN*",
            Opcode::Vand => "VAND*",
            Opcode::Vsqrtpd => "VSQRTPD",
            Opcode::Vpclmulqdq => "VPCLMULQDQ",
            Opcode::Vpsrad => "VPSRAD",
            Opcode::Vpcmp => "VPCMP*",
            Opcode::Vpmax => "VPMAX*",
            Opcode::Vpaddq => "VPADDQ",
            Opcode::Alu => "ALU",
            Opcode::Div => "DIV",
            Opcode::Fp => "FP",
            Opcode::SimdOther => "SIMD",
            Opcode::Load => "LOAD",
            Opcode::Store => "STORE",
            Opcode::Branch => "BRANCH",
            Opcode::Other => "OTHER",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Broad instruction classes, used by the pipeline model to pick functional
/// units and by the fault model to group voltage behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpcodeClass {
    /// Scalar integer operations.
    ScalarInt,
    /// Scalar floating point operations.
    ScalarFp,
    /// Vector (SSE/AVX) operations.
    Simd,
    /// AES-NI style crypto operations.
    Crypto,
    /// Loads and stores.
    Memory,
    /// Branches and calls.
    Control,
    /// Everything else.
    Other,
}

/// One row of the paper's Table 1: a faultable opcode and the number of
/// (core, frequency, voltage-offset) combinations in which Kogler et al.
/// observed it to fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// The faultable opcode family.
    pub opcode: Opcode,
    /// Number of observed faults for this family.
    pub faults: u32,
}

/// The paper's Table 1, in order: undervolting-induced instruction faults
/// observed by Kogler et al., most frequently faulting first.
pub const TABLE1: [Table1Row; 12] = [
    Table1Row {
        opcode: Opcode::Imul,
        faults: 79,
    },
    Table1Row {
        opcode: Opcode::Vor,
        faults: 47,
    },
    Table1Row {
        opcode: Opcode::Aesenc,
        faults: 40,
    },
    Table1Row {
        opcode: Opcode::Vxor,
        faults: 40,
    },
    Table1Row {
        opcode: Opcode::Vandn,
        faults: 30,
    },
    Table1Row {
        opcode: Opcode::Vand,
        faults: 28,
    },
    Table1Row {
        opcode: Opcode::Vsqrtpd,
        faults: 24,
    },
    Table1Row {
        opcode: Opcode::Vpclmulqdq,
        faults: 16,
    },
    Table1Row {
        opcode: Opcode::Vpsrad,
        faults: 9,
    },
    Table1Row {
        opcode: Opcode::Vpcmp,
        faults: 5,
    },
    Table1Row {
        opcode: Opcode::Vpmax,
        faults: 3,
    },
    Table1Row {
        opcode: Opcode::Vpaddq,
        faults: 1,
    },
];

/// Fraction of instructions that are IMUL in 525.x264_r (§6.1: 0.99 %).
pub const X264_IMUL_FRACTION: f64 = 0.0099;
/// Average IMUL fraction over the other SPEC benchmarks (§6.1: 0.07 %).
pub const SPEC_AVG_IMUL_FRACTION: f64 = 0.0007;

/// A set of opcodes, used to describe which instructions the OS disables on
/// the efficient DVFS curve (the *disable opcode MSR* of §3.3).
///
/// The set is a bitmask over [`Opcode`] and is cheap to copy. The two
/// important constructors are:
///
/// * [`FaultableSet::table1`] — everything in Table 1 (the full faultable
///   set a CPU without IMUL hardening would need to disable), and
/// * [`FaultableSet::suit`] — Table 1 *minus* `IMUL`, because a SUIT CPU
///   statically hardens `IMUL` with one extra pipeline stage (§4.2), making
///   it safe on the efficient curve.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultableSet {
    bits: u32,
}

impl FaultableSet {
    /// The empty set: no instructions are disabled.
    pub const EMPTY: FaultableSet = FaultableSet { bits: 0 };

    /// Creates an empty set.
    #[inline]
    pub const fn new() -> Self {
        Self::EMPTY
    }

    /// The full Table 1 faultable set, including `IMUL`.
    pub const fn table1() -> Self {
        let mut s = Self::EMPTY;
        let mut i = 0;
        while i < TABLE1.len() {
            s = s.with(TABLE1[i].opcode);
            i += 1;
        }
        s
    }

    /// The set a SUIT CPU disables on the efficient curve: Table 1 without
    /// `IMUL` (which is hardened in hardware instead, §4.2).
    pub const fn suit() -> Self {
        Self::table1().without(Opcode::Imul)
    }

    /// Returns a copy of the set with `op` inserted.
    #[inline]
    pub const fn with(self, op: Opcode) -> Self {
        Self {
            bits: self.bits | (1 << op.index()),
        }
    }

    /// Returns a copy of the set with `op` removed.
    #[inline]
    pub const fn without(self, op: Opcode) -> Self {
        Self {
            bits: self.bits & !(1 << op.index()),
        }
    }

    /// Inserts `op` into the set. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, op: Opcode) -> bool {
        let before = self.bits;
        self.bits |= 1 << op.index();
        self.bits != before
    }

    /// Removes `op` from the set. Returns `true` if it was present.
    pub fn remove(&mut self, op: Opcode) -> bool {
        let before = self.bits;
        self.bits &= !(1 << op.index());
        self.bits != before
    }

    /// Whether `op` is in the set.
    #[inline]
    pub const fn contains(self, op: Opcode) -> bool {
        self.bits & (1 << op.index()) != 0
    }

    /// Number of opcodes in the set.
    #[inline]
    pub const fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Union of two sets.
    #[inline]
    pub const fn union(self, other: Self) -> Self {
        Self {
            bits: self.bits | other.bits,
        }
    }

    /// Intersection of two sets.
    #[inline]
    pub const fn intersection(self, other: Self) -> Self {
        Self {
            bits: self.bits & other.bits,
        }
    }

    /// Whether every opcode in `self` is also in `other` (one word
    /// operation).
    #[inline]
    pub const fn is_subset(self, other: Self) -> bool {
        self.bits & !other.bits == 0
    }

    /// Iterates over the opcodes in the set, in Table 1 / declaration order.
    pub fn iter(self) -> impl Iterator<Item = Opcode> {
        Opcode::ALL.into_iter().filter(move |op| self.contains(*op))
    }
}

impl fmt::Debug for FaultableSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Opcode> for FaultableSet {
    fn from_iter<I: IntoIterator<Item = Opcode>>(iter: I) -> Self {
        let mut s = Self::EMPTY;
        for op in iter {
            s.insert(op);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        assert_eq!(TABLE1.len(), 12);
        assert_eq!(TABLE1[0].opcode, Opcode::Imul);
        assert_eq!(TABLE1[0].faults, 79);
        assert_eq!(TABLE1[11].opcode, Opcode::Vpaddq);
        assert_eq!(TABLE1[11].faults, 1);
        // Table 1 is sorted by descending fault count.
        for w in TABLE1.windows(2) {
            assert!(w[0].faults >= w[1].faults);
        }
    }

    #[test]
    fn faultable_flag_agrees_with_table1() {
        for row in TABLE1 {
            assert!(row.opcode.is_faultable(), "{:?}", row.opcode);
        }
        for op in [Opcode::Alu, Opcode::Load, Opcode::Branch, Opcode::Fp] {
            assert!(!op.is_faultable(), "{op:?}");
        }
    }

    #[test]
    fn suit_set_excludes_imul_only() {
        let suit = FaultableSet::suit();
        let full = FaultableSet::table1();
        assert_eq!(full.len(), 12);
        assert_eq!(suit.len(), 11);
        assert!(full.contains(Opcode::Imul));
        assert!(!suit.contains(Opcode::Imul));
        assert_eq!(suit.union(FaultableSet::EMPTY.with(Opcode::Imul)), full);
    }

    #[test]
    fn simd_classification_matches_section_5_8() {
        // "All instructions in Table 1 except IMUL and AESENC are SIMD."
        for row in TABLE1 {
            let expected = !matches!(row.opcode, Opcode::Imul | Opcode::Aesenc);
            assert_eq!(row.opcode.is_simd(), expected, "{:?}", row.opcode);
        }
    }

    #[test]
    fn set_insert_remove_roundtrip() {
        let mut s = FaultableSet::new();
        assert!(s.is_empty());
        assert!(s.insert(Opcode::Aesenc));
        assert!(!s.insert(Opcode::Aesenc));
        assert!(s.contains(Opcode::Aesenc));
        assert_eq!(s.len(), 1);
        assert!(s.remove(Opcode::Aesenc));
        assert!(!s.remove(Opcode::Aesenc));
        assert!(s.is_empty());
    }

    #[test]
    fn set_iter_order_is_stable() {
        let s = FaultableSet::suit();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v.first(), Some(&Opcode::Vor));
        assert_eq!(v.last(), Some(&Opcode::Vpaddq));
        assert_eq!(v.len(), 11);
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; Opcode::COUNT];
        for op in Opcode::ALL {
            assert!(op.index() < Opcode::COUNT);
            assert!(!seen[op.index()]);
            seen[op.index()] = true;
        }
    }

    #[test]
    fn display_uses_paper_mnemonics() {
        assert_eq!(Opcode::Imul.to_string(), "IMUL");
        assert_eq!(Opcode::Vpclmulqdq.to_string(), "VPCLMULQDQ");
        assert_eq!(Opcode::Vor.to_string(), "VOR*");
    }
}
