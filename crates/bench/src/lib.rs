//! # suit-bench
//!
//! The experiment harness: one function per table and figure of the SUIT
//! paper's evaluation, regenerating the same rows and series from this
//! repository's models and simulators, plus the performance benches
//! behind the committed `BENCH_*.json` baselines.
//!
//! [`ARTEFACTS`] and [`PERF`] are the one list of both. `suit-cli bench
//! <id>` runs a row, `suit-cli bench all` renders every artefact and
//! baseline ([`render_all`]), and `suit-cli bench check-bench` validates
//! the committed baselines. `--full` runs the uncapped 2 × 10¹⁰-instruction
//! virtual traces (the default caps at 4 × 10⁹, which reproduces the same
//! shapes in seconds).
//!
//! `EXPERIMENTS.md` at the repository root records paper-vs-measured for
//! every artefact here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod emit;
pub mod figs;
pub mod harness;
pub mod perf;
pub mod render;
pub mod render_all;
pub mod tables;

pub use render::TextTable;

use std::fmt::Display;

use suit_exec::Threads;
use suit_hw::UndervoltLevel;
use suit_telemetry::Telemetry;

use perf::PerfOpts;

/// How large a run `--test` or `--full` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `--test`: the CI smoke size.
    Test,
    /// The default: traces capped at 4 × 10⁹ instructions.
    Quick,
    /// `--full`: uncapped traces.
    Full,
}

impl Scale {
    /// Per-workload instruction cap for the sweeping artefacts.
    pub fn cap(self) -> Option<u64> {
        self.pick(Some(50_000_000), Some(4_000_000_000), None)
    }

    fn pick<T>(self, test: T, quick: T, full: T) -> T {
        match self {
            Scale::Test => test,
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// What an artefact row reads from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The size `--test` or `--full` selects.
    pub scale: Scale,
    /// Workers for the row's own fan-out; the output is byte-identical
    /// at every count.
    pub threads: Threads,
    /// `--telemetry`: rows that drive the simulator append its summary.
    pub telemetry: bool,
}

impl Opts {
    fn recorder(&self) -> Telemetry {
        if self.telemetry {
            Telemetry::recording()
        } else {
            Telemetry::off()
        }
    }
}

/// `text`, followed by `tele`'s summary when it recorded.
fn summarised(text: impl Display, tele: &Telemetry) -> String {
    if tele.is_enabled() {
        format!("{text}\n\n{}", tele.snapshot().summary())
    } else {
        text.to_string()
    }
}

/// An artefact row: its id and its renderer.
pub type Artefact = (&'static str, fn(&Opts) -> String);

/// Every EXPERIMENTS.md table, figure and report, in render order.
pub const ARTEFACTS: [Artefact; 25] = [
    ("table1", |o| tables::table1(o.threads).to_string()),
    ("table2", |_| tables::table2().to_string()),
    ("table3", |_| tables::table3().to_string()),
    ("table4", |_| tables::table4().to_string()),
    ("table5", |_| tables::table5().to_string()),
    ("table6", |o| {
        UndervoltLevel::ALL
            .map(|level| tables::table6(level, o.scale.cap(), o.threads).to_string())
            .join("\n")
    }),
    ("table7", |o| {
        tables::table7(o.scale.cap(), o.threads).to_string()
    }),
    ("table8", |o| {
        tables::table8(o.scale.cap(), o.threads).to_string()
    }),
    ("residency", |o| {
        tables::residency(o.scale.cap(), o.threads).to_string()
    }),
    ("delays", |_| tables::delays().to_string()),
    ("security", |o| {
        let (chips, insts) = o.scale.pick((8, 1_000), (20, 5_000), (20, 5_000));
        tables::security_report(chips, insts).to_string()
    }),
    ("fig5", |o| {
        let tele = o.recorder();
        summarised(figs::fig5(o.scale.cap(), &tele), &tele)
    }),
    ("fig6", |o| {
        let tele = o.recorder();
        summarised(figs::fig6(&tele), &tele)
    }),
    ("fig7", |_| figs::fig7().to_string()),
    ("fig8", |_| figs::fig8().to_string()),
    ("fig9", |_| figs::fig9().to_string()),
    ("fig10", |_| figs::fig10().to_string()),
    ("fig11", |_| figs::fig11().to_string()),
    ("fig12", |_| figs::fig12().to_string()),
    ("fig13", |_| figs::fig13().to_string()),
    ("fig14", |o| {
        figs::fig14(o.scale.pick(100_000, 400_000, 2_000_000)).to_string()
    }),
    ("fig16", |o| {
        figs::fig16(o.scale.cap(), o.threads).to_string()
    }),
    ("ablations", |o| {
        let (cap, threads) = (o.scale.cap(), o.threads);
        [
            ablation::thrash_prevention(cap, threads),
            ablation::strategies(cap, threads),
            ablation::imul_hardening(cap, threads),
            ablation::noisy_neighbor(cap, threads),
        ]
        .map(|t| t.to_string())
        .join("\n")
    }),
    ("montecarlo", |o| {
        let runs = o.scale.pick(10, 10, 30);
        ablation::montecarlo(runs, o.threads, o.telemetry)
    }),
    ("thermal", |_| ablation::thermal()),
];

/// A perf-bench row: its id, the committed baseline it writes (if any)
/// and its body.
pub type PerfBench = (&'static str, Option<&'static str>, fn(&PerfOpts));

/// Every performance bench. The rows with a file are the committed
/// `BENCH_*.json` baselines that `bench all` regenerates and
/// `bench check-bench` validates; the others only print.
pub const PERF: [PerfBench; 8] = [
    (
        "engine_hotpath",
        Some("BENCH_engine.json"),
        perf::engine_hotpath,
    ),
    (
        "fleet_throughput",
        Some("BENCH_fleet.json"),
        perf::fleet_throughput,
    ),
    (
        "trace_replay",
        Some("BENCH_trace_replay.json"),
        perf::trace_replay,
    ),
    (
        "scenario_sweep",
        Some("BENCH_scenarios.json"),
        perf::scenario_sweep,
    ),
    ("telemetry_overhead", None, perf::telemetry_overhead),
    ("aes", None, perf::aes),
    ("simulator", None, perf::simulator),
    ("paper_tables", None, perf::paper_tables),
];
