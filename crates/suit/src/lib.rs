//! # SUIT: Secure Undervolting with Instruction Traps
//!
//! A full Rust reproduction of the ASPLOS 2024 paper by Juffinger,
//! Kalinin, Gruss and Mueller: a hardware–software co-design that runs a
//! CPU on a second, more *efficient* DVFS curve by disabling the small
//! set of instructions that fault first when undervolted, trapping their
//! execution with a new `#DO` exception, and statically hardening the one
//! frequent faultable instruction (`IMUL`, 3 → 4 cycles).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Contents |
//! |---|---|
//! | [`isa`] | Opcodes, the Table 1 faultable set, 128-bit values, sim time |
//! | [`emu`] | `#DO` emulation: bit-sliced AES, scalar SIMD semantics |
//! | [`hw`] | DVFS curves, transition delays, power & guardband models |
//! | [`trace`] | Workload profiles and synthetic trace generation |
//! | [`store`] | `SUITTRC3` chunked container, bounded-memory streaming replay |
//! | [`faults`] | Vmin fault model, injection campaigns, security audit |
//! | [`core`] | The SUIT mechanism: MSRs, `#DO`, deadline, strategies |
//! | [`sim`] | The event-based system simulator (Tables 2/6, Figs 12/16) |
//! | [`scenarios`] | SRAM fault-domain & Scrooge attacker-economics campaigns |
//! | [`ooo`] | The out-of-order core model (Fig. 14) |
//! | [`telemetry`] | Counters, histograms, event rings, Perfetto export |
//! | [`exec`] | Deterministic fan-out executor behind every parallel sweep |
//! | [`mod@bench`] | Regenerators for every paper table and figure |
//! | [`check`] | Property testing, shrinking, differential fuzzing |
//! | [`serve`] | Zero-dependency HTTP service: batching, backpressure |
//!
//! ## Quick start
//!
//! ```
//! use suit::hw::{CpuModel, UndervoltLevel};
//! use suit::sim::engine::{simulate, SimConfig};
//! use suit::trace::profile;
//!
//! let cpu = CpuModel::xeon_4208();
//! let workload = profile::by_name("557.xz").unwrap();
//! let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(500_000_000);
//! let result = simulate(&cpu, workload, &cfg);
//!
//! // 557.xz spends ~97 % of its time on the efficient curve (§6.4)…
//! assert!(result.residency() > 0.9);
//! // …and gains double-digit energy efficiency.
//! assert!(result.efficiency() > 0.10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use suit_bench as bench;
pub use suit_check as check;
pub use suit_core as core;
pub use suit_emu as emu;
pub use suit_exec as exec;
pub use suit_faults as faults;
pub use suit_hw as hw;
pub use suit_isa as isa;
pub use suit_ooo as ooo;
pub use suit_rng as rng;
pub use suit_scenarios as scenarios;
pub use suit_serve as serve;
pub use suit_sim as sim;
pub use suit_store as store;
pub use suit_telemetry as telemetry;
pub use suit_trace as trace;
