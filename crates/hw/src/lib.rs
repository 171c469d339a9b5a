//! # suit-hw
//!
//! Hardware behaviour models for the SUIT reproduction.
//!
//! The paper grounds its system-level simulation in measurements of three
//! real CPUs (§5). We have none of that hardware, so this crate provides
//! *calibrated models* seeded with the paper's own measured constants —
//! exactly the quantities the paper's event-based simulator consumes:
//!
//! * [`measured`] — every number Section 5 reports, as named constants with
//!   paper citations.
//! * [`pstate`] — p-state tables and DVFS curves (Fig. 13), including the
//!   efficient curve construction of §3.2 and the modified-IMUL safe-voltage
//!   curve of §6.9.
//! * [`delays`] — voltage/frequency transition-delay models with settle
//!   curves and stall windows (Figs. 8–11) and exception/emulation-call
//!   delays (§5.3).
//! * [`power`] — the CMOS package power model (P ∝ C·V²·f plus static
//!   leakage) behind the efficiency numbers.
//! * [`undervolt`] — the steady-state undervolting response (Fig. 12,
//!   Table 2): how score, power and sustained frequency react to a voltage
//!   offset under a TDP limit.
//! * [`guardband`] — aging (§5.6) and temperature (§5.7) guardband models.
//! * [`cpu`] — the assembled CPU models 𝒜 (i9-9900K), ℬ (Ryzen 7 7700X)
//!   and 𝒞 (Xeon Silver 4208), plus the i5-1035G1 of Table 2.
//! * [`thermal`] — a first-order RC package thermal model behind Table 3's
//!   fan-speed → temperature → safe-offset relationship.
//! * [`msrs`] — bit-exact encoders/decoders for the software interfaces
//!   the paper measured through: the `MSR 0x150` overclocking mailbox,
//!   `IA32_PERF_STATUS`/`IA32_PERF_CTL`, `APERF`/`MPERF`, and the RAPL
//!   energy counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod delays;
pub mod guardband;
pub mod measured;
pub mod msrs;
pub mod power;
pub mod pstate;
pub mod thermal;
pub mod undervolt;

pub use cpu::{CpuKind, CpuModel, DomainLayout, OperatingPoint, Point, UndervoltLevel};
pub use delays::{DelayTable, TransitionDelays};
pub use pstate::{DvfsCurve, PState};
