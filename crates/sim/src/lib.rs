//! # suit-sim
//!
//! The event-based, trace-driven system simulator of the SUIT paper's
//! Fig. 15: a CPU model (from `suit-hw`) executing an instruction stream
//! (from `suit-trace`) under an operating strategy (from `suit-core`).
//!
//! The simulator advances time between *events* — faultable-instruction
//! executions, deadline-timer expiries, and asynchronous p-state arrivals —
//! and integrates instruction progress and relative package power over the
//! operating points `E`, `C_f` and `C_V` (Fig. 4), charging the measured
//! §5.2/§5.3 delays at every transition. Dense bursts are handled in
//! per-event steps but generated lazily, so multi-second virtual traces
//! with millions of faultable instructions simulate in milliseconds.
//!
//! * [`engine`] — the discrete-event core for the curve-switching
//!   strategies (𝑓, 𝑉, 𝑓𝑉 and §6.8's adaptive chooser), including
//!   multi-core runs sharing one DVFS domain (CPU 𝒜). [`SimConfig`]
//!   names its strategy with a `StrategyKey`, and [`simulate`] takes every
//!   key: it hands `e` to [`analytic`]. Every engine run goes through
//!   one domain loop, the arena scheduler; [`legacy`] keeps the original
//!   scan loop as the differential oracle the equivalence suite compares
//!   it against, and [`accum`] holds the exact closed forms that let the
//!   scheduler commit a lone core's burst without stepping through its
//!   events.
//! * [`fleet`] — racks of DVFS domains under per-rack thermal governors,
//!   sharded across `suit-exec` between thermal sync points.
//! * [`analytic`] — closed-form evaluation of the *emulation* and
//!   *no-SIMD* modes, which never switch curves (§6.2's methodology:
//!   no-SIMD recompile overhead plus one emulation-call delay per disabled
//!   instruction).
//! * [`result`] — run results: performance / power / efficiency deltas and
//!   efficient-curve residency.
//! * [`experiment`] — the Table 6 / Fig. 16 harness: every (CPU, cores,
//!   strategy, offset) × workload combination, with SPEC aggregation.
//! * [`timeline`] — p-state timelines for Figs. 5 and 6.
//! * [`montecarlo`] — distributional re-runs with sampled transition
//!   delays and trace seeds (the error bars around the point estimates).
//! * [`thermal_loop`] — the governor, thermal RC model and simulator
//!   coupled into a closed control loop (the operational form of the
//!   §3.1/§5.7 temperature budgets).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
pub mod accum;
pub mod analytic;
mod arena;
pub mod engine;
pub mod experiment;
pub mod fleet;
#[doc(hidden)]
pub mod legacy;
pub mod montecarlo;
pub mod result;
pub mod thermal_loop;
pub mod timeline;

pub use engine::{simulate, simulate_telemetry, SimConfig};
pub use result::RunResult;
