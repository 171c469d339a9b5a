//! # suit-trace
//!
//! Instruction traces, workload profiles, and synthetic trace generators —
//! the QEMU-plugin substitute for §5.1 of the SUIT paper.
//!
//! The paper instruments 25 applications (all 23 SPEC CPU2017 benchmarks
//! plus an Nginx HTTPS server and VLC streaming a 1080p video) with a QEMU
//! plugin that records when faultable instructions execute. Its key
//! finding: faultable instructions come in *bursts* separated by large
//! gaps (Figs. 5 and 7), and the gap-size process — not the individual
//! instruction semantics — is what drives SUIT's DVFS-curve dynamics.
//!
//! We cannot run SPEC under QEMU here, so this crate generates synthetic
//! traces with the same structure:
//!
//! * [`event::Burst`] — a burst of faultable instructions: a leading gap,
//!   an event count, and a within-burst gap. Bursts are the unit the
//!   event-based simulator consumes, which keeps dense AES workloads
//!   (62 500 `AESENC`s per HTTPS request) tractable.
//! * [`profile::WorkloadProfile`] — per-application burst statistics
//!   (interval, span, density, opcode mix, IPC, IMUL share, no-SIMD
//!   recompile overhead) calibrated so the simulator lands on the
//!   residencies and overheads the paper reports (e.g. 557.xz ≈ 97 % on
//!   the efficient curve, 520.omnetpp ≈ 3 %, SPEC average ≈ 73 %).
//! * [`gen::TraceGen`] — a deterministic, seedable iterator of bursts.
//! * [`stats`] — gap-size histograms (Figs. 5, 7).
//! * [`analyze`] — the §5.1 workload characterisation plus an analytic
//!   residency predictor cross-validated against the simulator.
//! * [`io`] — the trace metadata a replay needs and QEMU event-list
//!   import. `suit-store`'s `SUITTRC3` container is the binary format,
//!   so traces are generated (or imported) once and replayed across every
//!   CPU × strategy × offset configuration, as the paper's QEMU pipeline
//!   did.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod event;
pub mod gen;
pub mod io;
pub mod profile;
pub mod stats;

pub use event::Burst;
pub use gen::TraceGen;
pub use profile::{OpcodeMix, Suite, WorkloadProfile};
