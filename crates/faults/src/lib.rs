//! # suit-faults
//!
//! The undervolting fault model and security analysis of the SUIT
//! reproduction (§2.3, Table 1, §6.9).
//!
//! Undervolting faults are *silent data errors*: when the supply voltage
//! drops below an instruction's minimum voltage `Vmin`, its datapath
//! misses timing and produces wrong results while the CPU keeps running —
//! the effect Plundervolt/V0LTpwn/VoltJockey exploit. `Vmin` varies per
//! instruction class (the "instruction voltage variation" of Fig. 2, up
//! to 150 mV) and per core/chip (process variation).
//!
//! * [`vmin`] — the per-(chip, core, instruction) minimum-voltage model,
//!   sampled with process variation and ordered by the Table 1 fault
//!   counts (IMUL faults first, VPADDQ last).
//! * [`inject`] — fault-injection campaigns in the style of Kogler et
//!   al.'s Minefield framework: sweep cores × frequencies × offsets,
//!   count per-instruction faults, regenerate Table 1's ordering.
//! * [`security`] — the §6.9 reductionist security argument, made
//!   executable: audit any execution against the invariant *no faultable
//!   instruction ever executes below its Vmin*, comparing a SUIT system
//!   (traps + hardened IMUL) with naive undervolting.
//! * [`mod@attack`] — the motivating exploit class reproduced end to end: a
//!   Plundervolt-style RSA-CRT signer whose undervolted `IMUL`s leak a
//!   prime factor via Boneh–DeMillo–Lipton, and the SUIT configuration
//!   that defeats it.
//! * [`sram`] — the second fault domain: per-bank SRAM retention margins
//!   (Soyturk et al.), a distinct, lower-variance Vmin family whose
//!   faults are deterministic weak-cell bit flips in cache/ROB banks,
//!   with its own injection campaign and the SRAM-aware extension of the
//!   §6.9 audit (*no live bank below its bank-Vmin, or its contents are
//!   untrusted*).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod inject;
pub mod security;
pub mod sram;
pub mod vmin;

pub use attack::{attack, sign_crt, RsaKey, SignerEnv};
pub use inject::{Campaign, CampaignReport};
pub use security::{
    audit_naive_undervolt, audit_suit_system, audit_suit_traps_only, AuditOutcome, AuditSequence,
};
pub use sram::{
    audit_sram_guarded, audit_sram_naive, SramArrayModel, SramBank, SramBankKind, SramCampaign,
    SramCampaignReport,
};
pub use vmin::{ChipVminModel, VminSample};
