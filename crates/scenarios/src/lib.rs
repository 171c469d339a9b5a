//! # suit-scenarios
//!
//! Scenario campaigns over the SUIT reproduction — the two axes the
//! ROADMAP names from the related-work corpus:
//!
//! * [`sram`] — the **SRAM fault domain** scenario (Soyturk et al.,
//!   "Hardware Versus Software Fault Injection of Modern Undervolted
//!   SRAMs"): sweep a sampled per-bank SRAM array over a set of
//!   undervolt offsets with the thread-count-invariant campaign from
//!   `suit-faults`, then run the extended §6.9 audit matrix over *both*
//!   fault classes (instruction-Vmin datapath faults and per-bank
//!   retention bit flips) at the deepest offset.
//! * [`scrooge`] — the **attacker-economics** scenario ("Scrooge Attack:
//!   Undervolting ARM Processors for Profit"): a deterministic seeded
//!   search — grid plus coordinate refinement over `suit-exec`,
//!   byte-identical at any thread count — for the cheapest stable
//!   operating point of a `FleetSim` fleet, balancing energy savings
//!   against expected crash/SDC penalties, followed by an evaluation of
//!   every defence configuration at the attacker's chosen point.
//! * [`config`] — the strict JSON configuration parser shared by the
//!   CLI (`suit-cli scenario`), the service (`POST /v1/scenario`) and
//!   the fuzz/property suites: byte soup, truncation and hostile counts
//!   come back as structured errors *before* any count-proportional
//!   allocation, and unknown keys are rejected so typos fail loudly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod scrooge;
pub mod sram;

pub use config::{ScenarioConfig, ScroogeConfig, SramScenarioConfig};
pub use scrooge::{search, PointEval, ScroogeReport};
pub use sram::{run, SramScenarioReport};

use suit_exec::Threads;
use suit_telemetry::Telemetry;

/// The report of either campaign.
#[derive(Debug)]
pub enum ScenarioReport {
    /// The SRAM fault-domain sweep and its audit matrix.
    Sram(SramScenarioReport),
    /// The Scrooge attacker-economics search.
    Scrooge(ScroogeReport),
}

impl ScenarioConfig {
    /// Runs the campaign over `threads` workers, recording into `tele`.
    /// The report is byte-identical at every thread count.
    pub fn run(&self, threads: Threads, tele: &Telemetry) -> Result<ScenarioReport, String> {
        Ok(match self {
            ScenarioConfig::Sram(c) => ScenarioReport::Sram(sram::run(c, threads, tele)),
            ScenarioConfig::Scrooge(c) => {
                ScenarioReport::Scrooge(scrooge::search(c, threads, tele)?)
            }
        })
    }
}

impl ScenarioReport {
    /// The canonical JSON report `POST /v1/scenario` answers with.
    pub fn to_json(&self) -> String {
        match self {
            ScenarioReport::Sram(r) => r.to_json(),
            ScenarioReport::Scrooge(r) => r.to_json(),
        }
    }

    /// The text rendering `suit-cli scenario` prints.
    pub fn render(&self) -> String {
        match self {
            ScenarioReport::Sram(r) => r.render(),
            ScenarioReport::Scrooge(r) => r.render(),
        }
    }
}
