//! The two new model-specific registers SUIT adds (§3.2, §3.3).
//!
//! The crucial hardware invariant lives here: *"The CPU ensures that the
//! efficient curve can only be used if the faultable instructions are
//! disabled"* (§3.2). [`DvfsCurveMsr`] rejects a write selecting the
//! efficient curve while the disable set does not cover the vendor's
//! faultable set, and [`DisableOpcodeMsr`] rejects re-enabling faultable
//! instructions while the efficient curve is selected. Together they make
//! the unsafe state (efficient curve + enabled faultable instruction)
//! unrepresentable — the reduction of §6.9.

use suit_isa::{FaultableSet, Opcode};

/// Which DVFS curve a domain runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CurveSelect {
    /// The conservative curve — today's vendor curve, safe for every
    /// instruction.
    #[default]
    Conservative,
    /// The efficient curve — determined by excluding the faultable set.
    Efficient,
}

/// Errors from MSR writes (a real CPU would raise `#GP`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsrError {
    /// Tried to select the efficient curve while one or more faultable
    /// instructions are still enabled.
    FaultableEnabledOnEfficient {
        /// The first offending opcode.
        opcode: Opcode,
    },
    /// Tried to re-enable a faultable instruction while the efficient
    /// curve is selected.
    EnableWhileEfficient {
        /// The opcode whose enablement was rejected.
        opcode: Opcode,
    },
}

impl core::fmt::Display for MsrError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MsrError::FaultableEnabledOnEfficient { opcode } => write!(
                f,
                "#GP: cannot select the efficient DVFS curve while {opcode} is enabled"
            ),
            MsrError::EnableWhileEfficient { opcode } => write!(
                f,
                "#GP: cannot enable {opcode} while the efficient DVFS curve is selected"
            ),
        }
    }
}

impl std::error::Error for MsrError {}

/// The per-domain disable-opcode MSR (§3.3): which instructions raise
/// `#DO` instead of executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DisableOpcodeMsr {
    disabled: FaultableSet,
}

/// The per-domain DVFS-curve select MSR (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DvfsCurveMsr {
    selected: CurveSelect,
}

/// The coupled MSR pair of one DVFS domain, enforcing the §3.2 invariant.
///
/// The vendor-determined faultable set is fixed at construction (on a SUIT
/// CPU it is Table 1 minus the hardened `IMUL`, i.e.
/// [`FaultableSet::suit`]).
///
/// ```
/// use suit_core::{CurveSelect, SuitMsrs};
///
/// let mut msrs = SuitMsrs::suit_cpu();
/// // Selecting the efficient curve with faultables enabled is a #GP:
/// assert!(msrs.write_curve(CurveSelect::Efficient).is_err());
/// // The legal order: disable first, then switch.
/// msrs.disable_faultable();
/// msrs.write_curve(CurveSelect::Efficient).unwrap();
/// assert!(msrs.invariant_holds());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuitMsrs {
    faultable: FaultableSet,
    disable: DisableOpcodeMsr,
    curve: DvfsCurveMsr,
}

impl SuitMsrs {
    /// Creates the MSR pair for a domain whose vendor faultable set is
    /// `faultable`. Boots with everything enabled on the conservative
    /// curve, like a CPU today.
    pub fn new(faultable: FaultableSet) -> Self {
        SuitMsrs {
            faultable,
            disable: DisableOpcodeMsr::default(),
            curve: DvfsCurveMsr::default(),
        }
    }

    /// The MSR pair of a production SUIT CPU: Table 1 minus `IMUL`.
    pub fn suit_cpu() -> Self {
        Self::new(FaultableSet::suit())
    }

    /// Currently disabled opcodes.
    pub fn disabled_set(&self) -> FaultableSet {
        self.disable.disabled
    }

    /// Currently selected curve.
    pub fn curve(&self) -> CurveSelect {
        self.curve.selected
    }

    /// Whether `op` would raise `#DO` right now.
    pub fn is_disabled(&self, op: Opcode) -> bool {
        self.disable.disabled.contains(op)
    }

    /// Writes the disable-opcode MSR: `set` becomes the disabled set.
    ///
    /// # Errors
    ///
    /// Rejects the write if it would enable a faultable instruction while
    /// the efficient curve is selected.
    pub fn write_disable(&mut self, set: FaultableSet) -> Result<(), MsrError> {
        if self.curve.selected == CurveSelect::Efficient {
            if let Some(op) = self.faultable.iter().find(|op| !set.contains(*op)) {
                return Err(MsrError::EnableWhileEfficient { opcode: op });
            }
        }
        self.disable.disabled = set;
        Ok(())
    }

    /// Convenience: disable the whole vendor faultable set.
    pub fn disable_faultable(&mut self) {
        self.disable.disabled = self.faultable;
    }

    /// Convenience: enable everything (only legal on the conservative
    /// curve).
    ///
    /// # Errors
    ///
    /// Fails with [`MsrError::EnableWhileEfficient`] on the efficient curve.
    pub fn enable_all(&mut self) -> Result<(), MsrError> {
        self.write_disable(FaultableSet::EMPTY)
    }

    /// Writes the curve-select MSR.
    ///
    /// # Errors
    ///
    /// Rejects selecting [`CurveSelect::Efficient`] unless every opcode of
    /// the vendor faultable set is disabled.
    pub fn write_curve(&mut self, curve: CurveSelect) -> Result<(), MsrError> {
        if curve == CurveSelect::Efficient {
            if let Some(op) = self
                .faultable
                .iter()
                .find(|op| !self.disable.disabled.contains(*op))
            {
                return Err(MsrError::FaultableEnabledOnEfficient { opcode: op });
            }
        }
        self.curve.selected = curve;
        Ok(())
    }

    /// The safety invariant of §3.2/§6.9: on the efficient curve, every
    /// vendor-faultable opcode is disabled. `SuitMsrs` maintains this by
    /// construction; the method exists for property tests and the security
    /// audit.
    pub fn invariant_holds(&self) -> bool {
        self.curve.selected == CurveSelect::Conservative
            || self
                .faultable
                .iter()
                .all(|op| self.disable.disabled.contains(op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boots_like_a_cpu_today() {
        let m = SuitMsrs::suit_cpu();
        assert_eq!(m.curve(), CurveSelect::Conservative);
        assert!(m.disabled_set().is_empty());
        assert!(m.invariant_holds());
    }

    #[test]
    fn efficient_curve_requires_disabled_faultables() {
        let mut m = SuitMsrs::suit_cpu();
        let err = m.write_curve(CurveSelect::Efficient).unwrap_err();
        assert!(matches!(err, MsrError::FaultableEnabledOnEfficient { .. }));
        m.disable_faultable();
        assert!(m.write_curve(CurveSelect::Efficient).is_ok());
        assert!(m.invariant_holds());
    }

    #[test]
    fn cannot_reenable_on_efficient_curve() {
        let mut m = SuitMsrs::suit_cpu();
        m.disable_faultable();
        m.write_curve(CurveSelect::Efficient).unwrap();
        let err = m.enable_all().unwrap_err();
        assert!(matches!(err, MsrError::EnableWhileEfficient { .. }));
        // Switching back to conservative first makes it legal — the §4.3
        // exception-handler order (enable instructions only after the
        // curve change).
        m.write_curve(CurveSelect::Conservative).unwrap();
        m.enable_all().unwrap();
        assert!(m.invariant_holds());
    }

    #[test]
    fn partial_disable_set_is_insufficient() {
        let mut m = SuitMsrs::suit_cpu();
        let partial = FaultableSet::EMPTY.with(Opcode::Aesenc).with(Opcode::Vor);
        m.write_disable(partial).unwrap();
        assert!(m.write_curve(CurveSelect::Efficient).is_err());
    }

    #[test]
    fn imul_is_not_required_to_be_disabled_on_suit_cpu() {
        // §4.2: IMUL is hardened in hardware, so the vendor faultable set
        // excludes it and it may stay enabled on the efficient curve.
        let mut m = SuitMsrs::suit_cpu();
        m.disable_faultable();
        m.write_curve(CurveSelect::Efficient).unwrap();
        assert!(!m.is_disabled(Opcode::Imul));
        assert!(m.is_disabled(Opcode::Aesenc));
    }

    #[test]
    fn unhardened_cpu_must_disable_imul_too() {
        let mut m = SuitMsrs::new(FaultableSet::table1());
        m.write_disable(FaultableSet::suit()).unwrap();
        assert!(m.write_curve(CurveSelect::Efficient).is_err());
        m.write_disable(FaultableSet::table1()).unwrap();
        assert!(m.write_curve(CurveSelect::Efficient).is_ok());
    }

    #[test]
    fn error_display_mentions_opcode() {
        let mut m = SuitMsrs::suit_cpu();
        let err = m.write_curve(CurveSelect::Efficient).unwrap_err();
        assert!(err.to_string().contains("#GP"));
    }
}
