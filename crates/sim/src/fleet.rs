//! Fleet-scale simulation: racks of DVFS domains under per-rack thermal
//! governors, sharded across `suit-exec` between thermal sync points.
//!
//! The single-machine engine simulates one DVFS domain. A fleet is
//! thousands of them: `racks × domains_per_rack` domains of
//! `cores_per_domain` cores each, where every rack has its own cooling
//! (fan speed), its own age (borrowable guardband), and therefore its
//! own *realized* Vmin curve — the governor of `suit-core::governor`
//! decides per rack which undervolt level is safe, and the fleet runs
//! each domain at the shallower of the requested and the allowed level.
//!
//! Time is divided into *epochs* (thermal sync points). Within an epoch
//! every active domain is independent: its slice is a pure function of
//! `(seed, domain, epoch)` — seeds derive via the fork chain
//! `SuitRng::seed_from_u64(seed).fork(domain).fork(epoch)` — so epochs
//! shard over [`suit_exec::run`] with results byte-identical at every
//! thread count. At the sync point each rack aggregates its domains in
//! domain-index order, integrates package power into its thermal model,
//! and the governor re-decides the allowed level for the next epoch.
//! Slice results only depend on the level (workloads are statistically
//! stationary, the same argument as [`crate::thermal_loop`]), so
//! domains need no resumable engine state across epochs.
//!
//! [`FleetSim::run`] is the one driver: an epoch loop that fans the
//! domains out over one `suit_exec::run` per epoch and aggregates them in
//! domain-index order. The scheduler property suite pins its result at
//! one thread against four over random topologies.
//!
//! The *consolidation knob* (`utilization`) parks whole domains:
//! workloads consolidate onto the lowest-indexed domains and parked
//! domains are power-gated — they execute nothing, draw nothing, and
//! contribute zero per-core step events. Fewer active domains per rack
//! mean lower rack power, cooler packages, and deeper allowed
//! undervolt levels on what remains: the fleet-economics interplay the
//! Scrooge-attack literature studies, here on the defender's side.

use suit_core::governor::{GovernorConfig, OffsetGovernor};
use suit_core::StrategyKey;
use suit_exec::Threads;
use suit_hw::{CpuModel, UndervoltLevel};
use suit_isa::SimDuration;
use suit_rng::{RngCore, SuitRng};
use suit_telemetry::{fields, json};
use suit_trace::{profile, WorkloadProfile};

use crate::engine::{simulate, SimConfig};
use crate::result::RunResult;

/// Upper bound on racks.
pub const MAX_RACKS: usize = 4096;
/// Upper bound on total domains (`racks × domains_per_rack`).
pub const MAX_DOMAINS: usize = 1 << 16;
/// Upper bound on total cores (`domains × cores_per_domain`).
pub const MAX_CORES: usize = 1 << 20;
/// Upper bound on epochs.
pub const MAX_EPOCHS: usize = 100_000;
/// Upper bound on instructions per core per epoch.
pub const MAX_EPOCH_INSTS: u64 = 1_000_000_000_000;
/// Upper bound on `epochs × epoch_insts` (keeps epoch ticks well inside
/// the picosecond clock).
pub const MAX_TOTAL_INSTS: u64 = 1_000_000_000_000_000;
/// Upper bound on the workload rotation list.
pub const MAX_WORKLOADS: usize = 4096;

/// The workload-name check of the fleet's rows, shared with the configs
/// that describe a fleet.
pub use suit_trace::profile::check_name as check_workload;

/// Configuration of a fleet scenario.
///
/// Constructed directly, via [`Default`], or parsed from JSON with
/// [`FleetConfig::from_json`]. [`FleetSim::new`] validates every field
/// (and every count *before* any allocation derived from it).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// CPU model: 𝒜 (i9-9900K), ℬ (Ryzen 7700X) or 𝒞 (Xeon 4208).
    pub cpu: CpuModel,
    /// Operating strategy (a curve-switching one: 𝑓𝑉, 𝑓 or 𝑉).
    pub strategy: StrategyKey,
    /// Requested undervolt level; each rack's governor may cap it.
    pub level: UndervoltLevel,
    /// Number of racks (independent cooling + aging + governor each).
    pub racks: usize,
    /// DVFS domains per rack.
    pub domains_per_rack: usize,
    /// Cores per DVFS domain (sharing one curve state).
    pub cores_per_domain: usize,
    /// Thermal sync points to simulate.
    pub epochs: usize,
    /// Instructions per core per epoch.
    pub epoch_insts: u64,
    /// Root seed; per-slice seeds fork as `seed → domain → epoch`.
    pub seed: u64,
    /// Consolidation knob in `(0, 1]`: the fraction of domains that are
    /// powered on (lowest-indexed first); the rest are parked.
    pub utilization: f64,
    /// Workload names, assigned round-robin by domain index.
    pub workloads: Vec<String>,
    /// Per-rack fan speed, RPM. Empty selects the default cooling
    /// gradient (1800 RPM at rack 0 falling linearly to 1000 RPM).
    pub rack_fan_rpm: Vec<f64>,
    /// Per-rack deployment age, years. Empty uses `deployment_years`
    /// for every rack.
    pub rack_age_years: Vec<f64>,
    /// Default deployment age, years (aging guardband budget).
    pub deployment_years: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            cpu: CpuModel::xeon_4208(),
            strategy: StrategyKey::FreqVolt,
            level: UndervoltLevel::Mv97,
            racks: 4,
            domains_per_rack: 4,
            cores_per_domain: 4,
            epochs: 4,
            epoch_insts: 20_000_000,
            seed: 0x5017,
            utilization: 1.0,
            workloads: vec!["502.gcc".to_string()],
            rack_fan_rpm: Vec::new(),
            rack_age_years: Vec::new(),
            deployment_years: 0.0,
        }
    }
}

impl FleetConfig {
    fields! {
        /// The fleet config's field table (`suit-cli fleet --config` and
        /// its flags).
        pub const FIELDS: [FleetConfig] = [
            cores_per_domain flag "--cores-per-domain": int(1, MAX_CORES),
            cpu flag "--cpu": key(CpuModel::key, &CpuModel::KEYS),
            deployment_years: real(0.0, 30.0),
            domains_per_rack flag "--domains": int(1, MAX_DOMAINS),
            epoch_insts flag "--insts": int(1, MAX_EPOCH_INSTS),
            epochs flag "--epochs": int(1, MAX_EPOCHS),
            level as "offset" flag "--offset": num_key(UndervoltLevel::key, &UndervoltLevel::KEYS),
            rack_age_years: reals(0, MAX_RACKS, 0.0, 30.0),
            rack_fan_rpm: reals(0, MAX_RACKS, 0.0, 10_000.0),
            racks flag "--racks": int(1, MAX_RACKS),
            seed flag "--seed": int(0, u64::MAX),
            strategy flag "--strategy": key(StrategyKey::key, &["fv", "f", "v"]),
            utilization flag "--utilization": real_gt(0.0, 1.0),
            workloads flag "--workload": texts(1, MAX_WORKLOADS, check_workload),
        ];
    }

    /// Validates every field against its [`FleetConfig::FIELDS`] row,
    /// then the rules that span fields — topology products (with checked
    /// arithmetic, before anything is allocated from them) and per-rack
    /// list lengths.
    pub fn validate(&self) -> Result<(), String> {
        fields::check(Self::FIELDS, self)?;
        let domains = self
            .racks
            .checked_mul(self.domains_per_rack)
            .filter(|&d| d <= MAX_DOMAINS)
            .ok_or_else(|| format!("total domains exceed {MAX_DOMAINS}"))?;
        domains
            .checked_mul(self.cores_per_domain)
            .filter(|&c| c <= MAX_CORES)
            .ok_or_else(|| format!("total cores exceed {MAX_CORES}"))?;
        (self.epochs as u64)
            .checked_mul(self.epoch_insts)
            .filter(|&t| t <= MAX_TOTAL_INSTS)
            .ok_or_else(|| format!("epochs x epoch_insts exceeds {MAX_TOTAL_INSTS}"))?;
        for (field, v) in [
            ("rack_fan_rpm", &self.rack_fan_rpm),
            ("rack_age_years", &self.rack_age_years),
        ] {
            if !v.is_empty() && v.len() != self.racks {
                return Err(format!(
                    "{field} must be empty or have one entry per rack ({})",
                    self.racks
                ));
            }
        }
        Ok(())
    }

    /// Parses a fleet scenario from a JSON document.
    ///
    /// Same contract as the `SUITTRC` readers: arbitrary byte soup,
    /// truncation, and hostile counts must come back as a structured
    /// `Err`, never a panic — counts are validated before any
    /// count-proportional allocation. Unknown keys are rejected so
    /// typos fail loudly.
    pub fn from_json(src: &str) -> Result<FleetConfig, String> {
        let cfg: FleetConfig = fields::parse(Self::FIELDS, &json::parse(src)?, &[])?;
        cfg.validate()?;
        Ok(cfg)
    }
}

/// One rack's aggregate over the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct RackReport {
    /// Rack index.
    pub rack: usize,
    /// This rack's fan speed, RPM.
    pub fan_rpm: f64,
    /// This rack's deployment age, years.
    pub age_years: f64,
    /// Domains of this rack that were powered on.
    pub active_domains: usize,
    /// Executed `(domain, epoch)` slices.
    pub slices: u64,
    /// Slices that ran on some efficient (undervolted) curve.
    pub enabled_slices: u64,
    /// Slices that ran at the deepest evaluated level (−97 mV).
    pub deep_slices: u64,
    /// Σ slice durations over active domains, seconds.
    pub duration_s: f64,
    /// Σ no-SUIT baseline durations, seconds.
    pub baseline_s: f64,
    /// Σ relative package energy (relative-power · seconds).
    pub energy_rel: f64,
    /// Faultable instructions executed.
    pub events: u64,
    /// `#DO` exceptions taken.
    pub exceptions: u64,
    /// Junction temperature after the last sync point, °C.
    pub final_temp_c: f64,
}

impl RackReport {
    fn new(rack: usize, fan_rpm: f64, age_years: f64, active_domains: usize) -> Self {
        RackReport {
            rack,
            fan_rpm,
            age_years,
            active_domains,
            slices: 0,
            enabled_slices: 0,
            deep_slices: 0,
            duration_s: 0.0,
            baseline_s: 0.0,
            energy_rel: 0.0,
            events: 0,
            exceptions: 0,
            final_temp_c: 0.0,
        }
    }

    fn add(&mut self, out: &EpochOut) {
        self.slices += 1;
        self.enabled_slices += u64::from(out.level.is_some());
        self.deep_slices += u64::from(out.level == Some(UndervoltLevel::Mv97));
        self.duration_s += out.result.duration.as_secs_f64();
        self.baseline_s += out.result.baseline_duration.as_secs_f64();
        self.energy_rel += out.result.energy_rel;
        self.events += out.result.events;
        self.exceptions += out.result.exceptions;
    }

    /// Throughput-weighted performance change vs. baseline.
    pub fn perf(&self) -> f64 {
        if self.duration_s > 0.0 {
            self.baseline_s / self.duration_s - 1.0
        } else {
            0.0
        }
    }

    /// Mean package-power change vs. baseline.
    pub fn power(&self) -> f64 {
        if self.duration_s > 0.0 {
            self.energy_rel / self.duration_s - 1.0
        } else {
            0.0
        }
    }

    /// Efficiency change, `(1 + perf) / (1 + power) − 1`.
    pub fn efficiency(&self) -> f64 {
        (1.0 + self.perf()) / (1.0 + self.power()) - 1.0
    }

    /// Fraction of slices that ran undervolted.
    pub fn enabled_fraction(&self) -> f64 {
        self.enabled_slices as f64 / (self.slices.max(1)) as f64
    }

    /// Fraction of slices that ran at the deepest level — this rack's
    /// realized Vmin curve in one number (cooling and age cap it).
    pub fn deep_fraction(&self) -> f64 {
        self.deep_slices as f64 / (self.slices.max(1)) as f64
    }
}

/// The fleet-run outcome: per-rack reports (in rack order) plus the
/// topology they aggregate over.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// One report per rack, in rack-index order.
    pub racks: Vec<RackReport>,
    /// Total domains in the topology.
    pub domains: usize,
    /// Domains that were powered on (consolidation knob).
    pub active_domains: usize,
    /// Total cores (active domains × cores per domain).
    pub cores: usize,
    /// Epochs simulated.
    pub epochs: usize,
}

impl FleetResult {
    /// Σ slice durations across the fleet, seconds.
    pub fn duration_s(&self) -> f64 {
        self.racks.iter().map(|r| r.duration_s).sum()
    }

    /// Σ baseline durations across the fleet, seconds.
    pub fn baseline_s(&self) -> f64 {
        self.racks.iter().map(|r| r.baseline_s).sum()
    }

    /// Σ relative package energy across the fleet.
    pub fn energy_rel(&self) -> f64 {
        self.racks.iter().map(|r| r.energy_rel).sum()
    }

    /// Faultable instructions executed fleet-wide.
    pub fn events(&self) -> u64 {
        self.racks.iter().map(|r| r.events).sum()
    }

    /// `#DO` exceptions taken fleet-wide.
    pub fn exceptions(&self) -> u64 {
        self.racks.iter().map(|r| r.exceptions).sum()
    }

    /// Fleet performance change vs. baseline.
    pub fn perf(&self) -> f64 {
        let d = self.duration_s();
        if d > 0.0 {
            self.baseline_s() / d - 1.0
        } else {
            0.0
        }
    }

    /// Fleet mean package-power change vs. baseline.
    pub fn power(&self) -> f64 {
        let d = self.duration_s();
        if d > 0.0 {
            self.energy_rel() / d - 1.0
        } else {
            0.0
        }
    }

    /// Fleet efficiency change.
    pub fn efficiency(&self) -> f64 {
        (1.0 + self.perf()) / (1.0 + self.power()) - 1.0
    }

    /// Fraction of executed slices that ran undervolted.
    pub fn enabled_fraction(&self) -> f64 {
        let slices: u64 = self.racks.iter().map(|r| r.slices).sum();
        let enabled: u64 = self.racks.iter().map(|r| r.enabled_slices).sum();
        enabled as f64 / slices.max(1) as f64
    }

    /// Renders the deterministic text report the CLI prints (identical
    /// bytes for identical configs, at every thread count).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet: {} domains ({} active) x {} cores = {} cores over {} racks, {} epochs\n",
            self.domains,
            self.active_domains,
            self.cores.checked_div(self.active_domains).unwrap_or(0),
            self.cores,
            self.racks.len(),
            self.epochs,
        ));
        out.push_str(&format!(
            "{:>5} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
            "rack",
            "fan_rpm",
            "age_y",
            "temp_C",
            "enabled",
            "deep",
            "perf%",
            "power%",
            "eff%",
            "events"
        ));
        for r in &self.racks {
            out.push_str(&format!(
                "{:>5} {:>8.0} {:>6.1} {:>8.2} {:>7.1}% {:>7.1}% {:>8.3} {:>8.3} {:>8.3} {:>10}\n",
                r.rack,
                r.fan_rpm,
                r.age_years,
                r.final_temp_c,
                r.enabled_fraction() * 100.0,
                r.deep_fraction() * 100.0,
                r.perf() * 100.0,
                r.power() * 100.0,
                r.efficiency() * 100.0,
                r.events,
            ));
        }
        out.push_str(&format!(
            "fleet: perf {:+.3}%  power {:+.3}%  eff {:+.3}%  undervolted {:.1}%  events {}  exceptions {}\n",
            self.perf() * 100.0,
            self.power() * 100.0,
            self.efficiency() * 100.0,
            self.enabled_fraction() * 100.0,
            self.events(),
            self.exceptions(),
        ));
        out
    }
}

/// One domain's epoch slice outcome.
#[derive(Debug, Clone, PartialEq)]
struct EpochOut {
    result: RunResult,
    /// The realized undervolt level (`None`: stock fallback).
    level: Option<UndervoltLevel>,
}

/// A validated fleet scenario, ready to run.
#[derive(Debug)]
pub struct FleetSim {
    cfg: FleetConfig,
    /// The engine configuration every slice starts from.
    base: SimConfig,
    profiles: Vec<&'static WorkloadProfile>,
}

impl FleetSim {
    /// Validates `cfg` and resolves the CPU model, strategy parameters
    /// and workload profiles.
    pub fn new(cfg: FleetConfig) -> Result<FleetSim, String> {
        cfg.validate()?;
        let base = SimConfig {
            cores: cfg.cores_per_domain,
            max_insts: Some(cfg.epoch_insts),
            ..SimConfig::for_point(&cfg.cpu, cfg.strategy, cfg.level)
        };
        let profiles: Vec<&'static WorkloadProfile> = cfg
            .workloads
            .iter()
            .map(|name| profile::by_name(name).expect("validated"))
            .collect();
        Ok(FleetSim {
            cfg,
            base,
            profiles,
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Total domains in the topology.
    pub fn domains(&self) -> usize {
        self.cfg.racks * self.cfg.domains_per_rack
    }

    /// Powered-on domains under the consolidation knob (at least one).
    pub fn active_domains(&self) -> usize {
        let total = self.domains();
        ((self.cfg.utilization * total as f64).round() as usize).clamp(1, total)
    }

    fn fan_rpm(&self, rack: usize) -> f64 {
        if !self.cfg.rack_fan_rpm.is_empty() {
            self.cfg.rack_fan_rpm[rack]
        } else if self.cfg.racks == 1 {
            1800.0
        } else {
            // Default cooling gradient: front-of-row racks run cooler.
            1800.0 - 800.0 * rack as f64 / (self.cfg.racks - 1) as f64
        }
    }

    fn age_years(&self, rack: usize) -> f64 {
        if self.cfg.rack_age_years.is_empty() {
            self.cfg.deployment_years
        } else {
            self.cfg.rack_age_years[rack]
        }
    }

    fn governor(&self, rack: usize) -> OffsetGovernor {
        OffsetGovernor::new(
            GovernorConfig {
                deployment_years: self.age_years(rack),
                reserve_frac: 0.8,
                curve: self.cfg.cpu.curve().clone(),
            },
            self.fan_rpm(rack),
        )
    }

    /// The sync grid: one epoch of instructions at the base clock. The
    /// grid is a scheduling device (domains run different workloads at
    /// different IPCs); it depends on the config alone, which is all
    /// determinism needs.
    fn epoch_dt(&self) -> SimDuration {
        SimDuration::from_secs_f64(
            self.cfg.epoch_insts as f64 / (self.cfg.cpu.steady.base_freq_ghz * 1e9),
        )
    }

    /// Per-slice seed: the `seed → domain → epoch` fork chain.
    fn epoch_seed(&self, domain: usize, epoch: usize) -> u64 {
        SuitRng::seed_from_u64(self.cfg.seed)
            .fork(domain as u64)
            .fork(epoch as u64)
            .next_u64()
    }

    /// The level a domain actually runs at: the shallower of the
    /// requested level and what the rack's governor allows.
    fn realized_level(&self, allowed: Option<UndervoltLevel>) -> Option<UndervoltLevel> {
        allowed.map(|a| match (self.cfg.level, a) {
            (UndervoltLevel::Mv97, UndervoltLevel::Mv97) => UndervoltLevel::Mv97,
            _ => UndervoltLevel::Mv70,
        })
    }

    /// Runs one domain's epoch slice: a pure function of
    /// `(config, domain, epoch, allowed level)`.
    fn run_domain_epoch(
        &self,
        domain: usize,
        epoch: usize,
        allowed: Option<UndervoltLevel>,
    ) -> EpochOut {
        let p = self.profiles[domain % self.profiles.len()];
        match self.realized_level(allowed) {
            Some(level) => {
                let sc = SimConfig {
                    level,
                    seed: self.epoch_seed(domain, epoch),
                    ..self.base.clone()
                };
                EpochOut {
                    result: simulate(&self.cfg.cpu, p, &sc),
                    level: Some(level),
                }
            }
            None => EpochOut {
                result: self.stock_epoch(p),
                level: None,
            },
        }
    }

    /// The no-SUIT slice a too-hot rack falls back to: stock operation
    /// at the conservative point, closed-form (no events, no traps).
    fn stock_epoch(&self, p: &WorkloadProfile) -> RunResult {
        let cap = self.cfg.epoch_insts.min(p.total_insts);
        let nominal = p.ipc * self.cfg.cpu.steady.base_freq_ghz * 1e9;
        let d = SimDuration::from_secs_f64(cap as f64 / nominal);
        RunResult {
            workload: p.name.to_string(),
            duration: d,
            baseline_duration: d,
            energy_rel: d.as_secs_f64(),
            time_e: SimDuration::ZERO,
            time_cf: SimDuration::ZERO,
            time_cv: d,
            time_stall: SimDuration::ZERO,
            events: 0,
            exceptions: 0,
            timer_fires: 0,
            thrash_hits: 0,
        }
    }

    /// Stock package watts for this CPU's SPEC operating point — the
    /// scale the rack thermal model integrates.
    fn base_watts(&self) -> f64 {
        self.cfg.cpu.steady.response(0.0).power_w
    }

    /// The thermal sync point for one rack: aggregate this epoch's
    /// domain slices in domain-index order, integrate package power
    /// over the sync grid, and let the governor re-decide.
    fn rack_sync(&self, outs: &[EpochOut], governor: &mut OffsetGovernor, report: &mut RackReport) {
        let base = self.base_watts();
        let mut watts_sum = 0.0;
        for out in outs {
            report.add(out);
            watts_sum += base * (out.result.energy_rel / out.result.duration.as_secs_f64());
        }
        // Parked (power-gated) domains draw nothing; an all-parked rack
        // integrates zero watts and cools toward ambient.
        let watts = if outs.is_empty() {
            0.0
        } else {
            watts_sum / outs.len() as f64
        };
        governor.step(self.epoch_dt(), watts);
        report.final_temp_c = governor.temperature_c();
    }

    /// Runs the fleet over `threads` workers: each epoch fans the active
    /// domains out over one [`suit_exec::run`], then settles every
    /// rack's sync point in rack order.
    pub fn run(&self, threads: Threads) -> FleetResult {
        let dpr = self.cfg.domains_per_rack;
        let active = self.active_domains();
        let mut governors: Vec<OffsetGovernor> =
            (0..self.cfg.racks).map(|r| self.governor(r)).collect();
        let mut reports: Vec<RackReport> = (0..self.cfg.racks)
            .map(|r| {
                let lo = r * dpr;
                let act = (lo + dpr).min(active).saturating_sub(lo);
                RackReport::new(r, self.fan_rpm(r), self.age_years(r), act)
            })
            .collect();

        for epoch in 0..self.cfg.epochs {
            let levels: Vec<Option<UndervoltLevel>> = governors.iter().map(|g| g.level()).collect();
            let outs = suit_exec::run(active, threads, |d| {
                self.run_domain_epoch(d, epoch, levels[d / dpr])
            });
            for r in 0..self.cfg.racks {
                let lo = (r * dpr).min(active);
                let hi = ((r + 1) * dpr).min(active);
                self.rack_sync(&outs[lo..hi], &mut governors[r], &mut reports[r]);
            }
        }

        FleetResult {
            racks: reports,
            domains: self.domains(),
            active_domains: active,
            cores: active * self.cfg.cores_per_domain,
            epochs: self.cfg.epochs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        FleetConfig {
            racks: 2,
            domains_per_rack: 2,
            cores_per_domain: 2,
            epochs: 2,
            epoch_insts: 5_000_000,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn sharded_run_is_thread_invariant() {
        let sim = FleetSim::new(tiny()).unwrap();
        let a = sim.run(Threads::Fixed(1));
        let b = sim.run(Threads::Fixed(4));
        assert_eq!(a, b);
        assert!(a.events() > 0);
        assert!(a.duration_s() > 0.0);
    }

    #[test]
    fn consolidation_parks_domains_and_keeps_determinism() {
        let mut cfg = tiny();
        cfg.utilization = 0.5;
        let sim = FleetSim::new(cfg).unwrap();
        let r = sim.run(Threads::Fixed(2));
        assert_eq!(r.active_domains, 2);
        assert_eq!(r.domains, 4);
        // Rack 1's domains (indices 2, 3) are parked.
        assert_eq!(r.racks[0].slices, 4);
        assert_eq!(r.racks[1].slices, 0);
        assert_eq!(r.racks[1].events, 0);
        assert_eq!(sim.run(Threads::Fixed(1)), r);

        // Regression: utilization low enough that a whole rack sits past
        // the active range used to panic on an out-of-range slice start.
        let mut cfg = tiny();
        cfg.utilization = 0.25;
        let sim = FleetSim::new(cfg).unwrap();
        let r = sim.run(Threads::Fixed(2));
        assert_eq!(r.active_domains, 1);
        assert_eq!(r.racks[1].slices, 0);
        assert_eq!(sim.run(Threads::Fixed(1)), r);
    }

    #[test]
    fn aged_rack_caps_undervolt_level() {
        // A 9.5-year-old rack has no borrowable aging guardband left:
        // its governor caps the requested -97 mV to -70 mV from the
        // first epoch, while the fresh rack runs the full depth.
        let mut cfg = tiny();
        cfg.rack_fan_rpm = vec![1800.0, 1800.0];
        cfg.rack_age_years = vec![0.0, 9.5];
        let sim = FleetSim::new(cfg).unwrap();
        let r = sim.run(Threads::Fixed(2));
        assert_eq!(r.racks[0].deep_slices, r.racks[0].slices);
        assert_eq!(r.racks[1].deep_slices, 0);
        assert_eq!(r.racks[1].enabled_slices, r.racks[1].slices);
        // The shallower offset saves less power.
        assert!(r.racks[0].power() < r.racks[1].power());
    }

    #[test]
    fn hot_rack_falls_back_to_shallower_level() {
        // A starved rack (300 RPM) heats past the Table 3 crossover
        // where -97 mV stops being safe (~42 degC) while the well-cooled
        // rack is still far from its (higher) steady state.
        let mut cfg = tiny();
        cfg.domains_per_rack = 1;
        cfg.cores_per_domain = 1;
        cfg.workloads = vec!["557.xz".into()];
        cfg.epochs = 72;
        cfg.epoch_insts = 2_000_000_000;
        cfg.rack_fan_rpm = vec![1800.0, 300.0];
        let sim = FleetSim::new(cfg).unwrap();
        let r = sim.run(Threads::Fixed(4));
        assert!(r.racks[1].final_temp_c > r.racks[0].final_temp_c);
        assert!(
            r.racks[1].deep_slices < r.racks[1].slices,
            "hot rack never left -97 mV: {:.1} degC after {} slices",
            r.racks[1].final_temp_c,
            r.racks[1].slices
        );
        assert!(r.racks[1].deep_slices < r.racks[0].deep_slices);
    }

    #[test]
    fn config_validation_rejects_hostile_counts() {
        for (mutate, msg) in [
            (
                Box::new(|c: &mut FleetConfig| c.racks = usize::MAX) as Box<dyn Fn(&mut _)>,
                "racks",
            ),
            (Box::new(|c: &mut FleetConfig| c.epochs = 0), "epochs"),
            (
                Box::new(|c: &mut FleetConfig| {
                    c.racks = 4096;
                    c.domains_per_rack = usize::MAX / 4096 + 1;
                }),
                "domains",
            ),
            (
                Box::new(|c: &mut FleetConfig| c.utilization = f64::NAN),
                "utilization",
            ),
            (
                Box::new(|c: &mut FleetConfig| c.workloads = vec!["no-such".into()]),
                "workload",
            ),
        ] {
            let mut cfg = tiny();
            mutate(&mut cfg);
            let err = FleetSim::new(cfg).expect_err(msg);
            assert!(err.contains(msg), "{msg}: {err}");
        }
    }

    #[test]
    fn json_round_trips_and_rejects_unknown_keys() {
        let cfg = FleetConfig::from_json(
            r#"{"racks": 2, "domains_per_rack": 3, "cores_per_domain": 1,
                "epochs": 2, "epoch_insts": 1000000, "seed": 9,
                "utilization": 0.5, "workloads": ["557.xz", "Nginx"],
                "rack_fan_rpm": [1800, 900], "offset": 70, "strategy": "f",
                "cpu": "b"}"#,
        )
        .unwrap();
        assert_eq!(cfg.racks, 2);
        assert_eq!(cfg.level, UndervoltLevel::Mv70);
        assert_eq!(cfg.strategy, StrategyKey::Frequency);
        assert_eq!(cfg.workloads, vec!["557.xz", "Nginx"]);

        assert!(FleetConfig::from_json(r#"{"rakcs": 2}"#)
            .unwrap_err()
            .contains("unknown key"));
        assert!(FleetConfig::from_json(r#"{"racks": 1e300}"#).is_err());
        assert!(FleetConfig::from_json("[1,2]").is_err());
        assert!(FleetConfig::from_json("{\"racks\":").is_err());
    }
}
