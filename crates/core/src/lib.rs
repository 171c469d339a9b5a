//! # suit-core
//!
//! The paper's primary contribution: the SUIT hardware–software interface
//! and operating-system policy (§3, §4).
//!
//! SUIT extends a CPU with:
//!
//! * a **disable-opcode MSR** ([`msr::DisableOpcodeMsr`]) with which the OS
//!   disables the faultable instruction set per DVFS domain (§3.3);
//! * a **DVFS-curve MSR** ([`msr::DvfsCurveMsr`]) selecting the
//!   conservative or efficient curve, with the hardware-enforced invariant
//!   that the efficient curve is only selectable while the faultable
//!   instructions are disabled (§3.2) — the property the security argument
//!   of §6.9 rests on;
//! * a **`#DO` (Disabled Opcode) exception** ([`exception`]) raised when a
//!   disabled instruction reaches the pipeline, using a reserved interrupt
//!   vector (§3.3);
//! * a **deadline timer** ([`deadline::DeadlineTimer`]) that counts down
//!   from `p_dl` and is reset by every faultable-instruction execution;
//!   its expiry tells the OS the burst is over (§4.1);
//! * **thrashing prevention** ([`thrash::ThrashGuard`]): if `p_ec`
//!   exceptions occur within `p_ts`, the deadline is multiplied by `p_df`
//!   (§4.3).
//!
//! Beyond the paper's static offsets, [`governor`] adds a temperature- and
//! aging-aware offset governor (Table 3 + §3.1 budgets combined at run
//! time) and [`adaptive`] the §6.8 dynamic strategy chooser.
//!
//! The OS side is [`os::SuitOs`]: a faithful Rust rendering of the paper's
//! Listing 1 driving an abstract [`os::CpuControl`] (the simulator, or —
//! in a real deployment — the actual MSR writes). The four operating
//! strategies of §4.3 are [`strategy::OperatingStrategy`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod deadline;
pub mod exception;
pub mod frontend;
pub mod governor;
pub mod msr;
pub mod os;
pub mod strategy;
pub mod thrash;

pub use adaptive::{AdaptiveChooser, AdaptiveConfig};
pub use exception::{DisabledOpcode, DO_VECTOR};
pub use frontend::{MachineState, StepOutcome, SuitFrontend};
pub use governor::{GovernorConfig, OffsetGovernor};
pub use msr::{CurveSelect, DisableOpcodeMsr, DvfsCurveMsr, MsrError, SuitMsrs};
pub use os::{CpuControl, CurveTarget, HandlerAction, OsStats, SuitOs};
pub use strategy::{OperatingStrategy, StrategyKey, StrategyParams};
