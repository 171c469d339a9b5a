//! # suit-telemetry
//!
//! The workspace's observability layer. The paper's whole evaluation is
//! built from *internal* event streams — curve switches, `#DO` traps,
//! deadline expiries, thrash-prevention lockouts, stall windows (Figs.
//! 5–7, §6.4 residency) — yet simulators naturally expose only final
//! aggregates. This crate gives every subsystem a first-class place to
//! put those streams:
//!
//! * **Counters** ([`Counter`]) — atomic `u64` tallies, one per named
//!   quantity (curve switches per target, `#DO` traps, MSR writes,
//!   per-point residency time in picoseconds, …).
//! * **Histograms** ([`Hist`]) — log₂-bucketed distributions with
//!   p50/p90/p99/max readout (stall durations, conservative-episode
//!   lengths, per-shard fault counts).
//! * **Events** ([`Event`]) — a bounded ring buffer of typed
//!   spans/instants carrying simulated-time timestamps, exportable as a
//!   Chrome/Perfetto `trace.json` ([`TelemetrySnapshot::to_perfetto_json`])
//!   viewable in `ui.perfetto.dev`.
//!
//! ## The handle and the no-op fast path
//!
//! Hooks go through a cheap, cloneable [`Telemetry`] handle. A disabled
//! handle ([`Telemetry::off`]) holds no recorder at all, so every hook is
//! a single `Option` branch — the hot simulator loops pay one predictable
//! branch when observability is off (pinned by the `telemetry_overhead`
//! bench in `suit-bench`).
//!
//! ## Determinism
//!
//! Recorders shard like every other campaign structure in this
//! workspace: one recorder per unit of work (or one shared recorder whose
//! mutations are all commutative), snapshots merged **position-ordered**
//! with commutative/associative ops (counters add, histogram buckets add,
//! maxima max, events concatenate in shard order). Merged telemetry is
//! therefore byte-identical at any worker-thread count, preserving the
//! `tests/determinism.rs` guarantee.
//!
//! ```
//! use suit_isa::{SimDuration, SimTime};
//! use suit_telemetry::{Counter, EventKind, Telemetry};
//!
//! let tele = Telemetry::recording();
//! let t0 = SimTime::ZERO;
//! tele.count(Counter::DoTraps);
//! tele.span(EventKind::Stall, t0, t0 + SimDuration::from_micros(27), 0);
//! let snap = tele.snapshot();
//! assert_eq!(snap.counter(Counter::DoTraps), 1);
//! assert!(snap.to_perfetto_json().contains("\"stall\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fields;
pub mod hist;
pub mod json;
pub mod perfetto;
pub mod recorder;
pub mod ring;

pub use hist::HistSnapshot;
pub use perfetto::{validate_perfetto, PerfettoStats};
pub use recorder::{Counter, EventKind, Hist, Recorder, Telemetry, TelemetrySnapshot};
pub use ring::Event;
