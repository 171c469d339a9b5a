//! Strict JSON configuration for the scenario campaigns.
//!
//! Same contract as `FleetConfig::from_json` and the `SUITTRC` readers:
//! arbitrary byte soup, truncation, and hostile counts must come back as
//! a structured `Err`, never a panic — every count is bounds-checked
//! here *before* any count-proportional allocation happens in the
//! runners, and unknown keys are rejected so typos fail loudly.
//!
//! The same document shape is accepted everywhere a scenario enters the
//! stack: `suit-cli scenario sram|scrooge --config <file>` (the
//! `"scenario"` discriminator is optional — the subcommand names it) and
//! `POST /v1/scenario` (the discriminator is required; service-level
//! keys like `deadline_ms` are passed through `skip`).

use suit_hw::UndervoltLevel;
use suit_sim::fleet::{self, FleetConfig};
use suit_telemetry::{fields, json};

/// Upper bound on banks of either kind in a sampled SRAM array.
pub const MAX_BANKS: usize = 4096;
/// Upper bound on offsets in an SRAM sweep.
pub const MAX_OFFSETS: usize = 256;
/// Upper bound on accesses per (bank, offset) point.
pub const MAX_READS: u32 = 1 << 20;
/// Upper bound on audit sequence length.
pub const MAX_AUDIT_LEN: usize = 1_000_000;
/// Upper bound on audited cores in the SRAM scenario.
pub const MAX_CORES: usize = 1024;
/// Upper bound on grid steps along either search axis.
pub const MAX_STEPS: usize = 64;
/// Upper bound on coordinate-refinement rounds.
pub const MAX_REFINE_ROUNDS: usize = 16;

/// Configuration of the SRAM fault-domain scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SramScenarioConfig {
    /// Cache banks in the sampled array.
    pub cache_banks: usize,
    /// Reorder-buffer banks in the sampled array.
    pub rob_banks: usize,
    /// Datapath process-variation sigma, mV (the SRAM family scales it
    /// down internally).
    pub sigma_mv: f64,
    /// Undervolt offsets to sweep, mV (non-positive).
    pub offsets_mv: Vec<f64>,
    /// Accesses per (bank, offset) point.
    pub reads: u32,
    /// Instructions / accesses per audit run.
    pub audit_len: usize,
    /// Cores in the instruction-class audit chip.
    pub cores: usize,
    /// Root seed for the array, the chip and every audit.
    pub seed: u64,
}

impl Default for SramScenarioConfig {
    fn default() -> Self {
        SramScenarioConfig {
            cache_banks: 8,
            rob_banks: 4,
            sigma_mv: 12.0,
            offsets_mv: (10..=18).map(|i| -10.0 * i as f64).collect(),
            reads: 4096,
            audit_len: 2000,
            cores: 2,
            seed: 0x5017,
        }
    }
}

impl SramScenarioConfig {
    fields! {
        /// The SRAM scenario's field table.
        pub const FIELDS: [SramScenarioConfig] = [
            audit_len: int(1, MAX_AUDIT_LEN),
            cache_banks: int(0, MAX_BANKS),
            cores: int(1, MAX_CORES),
            offsets_mv: reals(1, MAX_OFFSETS, -1000.0, 0.0),
            reads: int(1, MAX_READS),
            rob_banks: int(0, MAX_BANKS),
            seed flag "--seed": int(0, u64::MAX),
            sigma_mv: real(0.0, 200.0),
        ];
    }

    /// Validates every field against its row, then that the array has a
    /// bank at all; counts are bounds-checked before anything is
    /// allocated from them.
    pub fn validate(&self) -> Result<(), String> {
        fields::check(Self::FIELDS, self)?;
        check_banks(self.cache_banks, self.rob_banks)
    }

    /// Parses a config from a JSON document.
    pub fn from_json(src: &str) -> Result<SramScenarioConfig, String> {
        Self::from_value(&json::parse(src)?, &[])
    }

    /// Parses a config from an already-parsed document, ignoring the
    /// keys in `skip` (service-level fields such as `deadline_ms`). A
    /// `"scenario"` key, if present, must name this scenario.
    pub fn from_value(v: &json::Value, skip: &[&str]) -> Result<SramScenarioConfig, String> {
        let cfg: SramScenarioConfig = parse_kind(Self::FIELDS, v, skip, "sram")?;
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Configuration of the Scrooge attacker-economics scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScroogeConfig {
    /// Racks in the attacked fleet.
    pub racks: usize,
    /// DVFS domains per rack.
    pub domains_per_rack: usize,
    /// Cores per domain.
    pub cores_per_domain: usize,
    /// Thermal epochs of the validation fleet run.
    pub epochs: usize,
    /// Instructions per epoch of the validation fleet run.
    pub epoch_insts: u64,
    /// Workload every domain runs.
    pub workload: String,
    /// Datapath process-variation sigma, mV.
    pub sigma_mv: f64,
    /// Cache banks per domain's SRAM array.
    pub cache_banks: usize,
    /// ROB banks per domain's SRAM array.
    pub rob_banks: usize,
    /// Deepest voltage offset the search may choose, mV (negative).
    pub offset_min_mv: f64,
    /// Grid steps along the offset axis (0 → `offset_min_mv`).
    pub offset_steps: usize,
    /// Lowest frequency scale the search may choose, in (0, 1].
    pub freq_min: f64,
    /// Grid steps along the frequency axis (1 → `freq_min`).
    pub freq_steps: usize,
    /// Coordinate-refinement rounds after the grid pass.
    pub refine_rounds: usize,
    /// Energy price, $ per MWh.
    pub energy_price: f64,
    /// Expected cost of one crash over the horizon, $ per domain.
    pub crash_cost: f64,
    /// Expected cost of one silent data corruption, $ per domain.
    pub sdc_cost: f64,
    /// SLA penalty per unit of lost throughput, $ per domain-hour.
    pub sla_cost: f64,
    /// Nominal power per domain, W.
    pub domain_power_w: f64,
    /// Attack horizon, hours.
    pub horizon_hours: f64,
    /// Instructions / accesses per defence audit.
    pub audit_len: usize,
    /// Root seed: per-domain chips and arrays fork from it.
    pub seed: u64,
}

impl Default for ScroogeConfig {
    fn default() -> Self {
        ScroogeConfig {
            racks: 2,
            domains_per_rack: 2,
            cores_per_domain: 2,
            epochs: 2,
            epoch_insts: 1_000_000,
            workload: "502.gcc".to_string(),
            sigma_mv: 12.0,
            cache_banks: 4,
            rob_banks: 2,
            offset_min_mv: -180.0,
            offset_steps: 13,
            freq_min: 0.7,
            freq_steps: 7,
            refine_rounds: 3,
            energy_price: 80.0,
            crash_cost: 50.0,
            sdc_cost: 500.0,
            sla_cost: 0.02,
            domain_power_w: 350.0,
            horizon_hours: 720.0,
            audit_len: 1500,
            seed: 0x5017,
        }
    }
}

impl ScroogeConfig {
    fields! {
        /// The Scrooge scenario's field table; the fleet-shape rows share
        /// [`FleetConfig::FIELDS`]' bounds.
        pub const FIELDS: [ScroogeConfig] = [
            audit_len: int(1, MAX_AUDIT_LEN),
            cache_banks: int(0, MAX_BANKS),
            cores_per_domain: int(1, fleet::MAX_CORES),
            crash_cost: real(0.0, 1e9),
            domain_power_w: real_gt(0.0, 100_000.0),
            domains_per_rack: int(1, fleet::MAX_DOMAINS),
            energy_price: real(0.0, 1e9),
            epoch_insts: int(1, fleet::MAX_EPOCH_INSTS),
            epochs: int(1, fleet::MAX_EPOCHS),
            freq_min: real_gt(0.0, 1.0),
            freq_steps: int(2, MAX_STEPS),
            horizon_hours: real_gt(0.0, 1_000_000.0),
            offset_min_mv: real_lt(-400.0, 0.0),
            offset_steps: int(2, MAX_STEPS),
            racks: int(1, fleet::MAX_RACKS),
            refine_rounds: int(0, MAX_REFINE_ROUNDS),
            rob_banks: int(0, MAX_BANKS),
            sdc_cost: real(0.0, 1e9),
            seed flag "--seed": int(0, u64::MAX),
            sigma_mv: real(0.0, 200.0),
            sla_cost: real(0.0, 1e9),
            workload: text(fleet::check_workload),
        ];
    }

    /// The validation fleet this scenario attacks, at `level`. The fleet
    /// shape (racks, domains, cores, epochs, workload) is validated by
    /// `FleetConfig::validate`, so the Scrooge scenario inherits every
    /// fleet bound.
    pub fn fleet_config(&self, level: UndervoltLevel) -> FleetConfig {
        FleetConfig {
            level,
            racks: self.racks,
            domains_per_rack: self.domains_per_rack,
            cores_per_domain: self.cores_per_domain,
            epochs: self.epochs,
            epoch_insts: self.epoch_insts,
            seed: self.seed,
            workloads: vec![self.workload.clone()],
            ..FleetConfig::default()
        }
    }

    /// Validates every field against its row, then the rules that span
    /// fields: the fleet shape through `FleetConfig` and a nonempty
    /// array.
    pub fn validate(&self) -> Result<(), String> {
        fields::check(Self::FIELDS, self)?;
        self.fleet_config(UndervoltLevel::Mv97).validate()?;
        check_banks(self.cache_banks, self.rob_banks)
    }

    /// Parses a config from a JSON document.
    pub fn from_json(src: &str) -> Result<ScroogeConfig, String> {
        Self::from_value(&json::parse(src)?, &[])
    }

    /// Parses a config from an already-parsed document, ignoring the
    /// keys in `skip`. A `"scenario"` key, if present, must name this
    /// scenario.
    pub fn from_value(v: &json::Value, skip: &[&str]) -> Result<ScroogeConfig, String> {
        let cfg: ScroogeConfig = parse_kind(Self::FIELDS, v, skip, "scrooge")?;
        cfg.validate()?;
        Ok(cfg)
    }
}

/// A parsed scenario request: the `"scenario"` discriminator plus the
/// matching config. This is what `POST /v1/scenario` and the fuzz suite
/// parse.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioConfig {
    /// The SRAM fault-domain scenario.
    Sram(SramScenarioConfig),
    /// The Scrooge attacker-economics scenario.
    Scrooge(ScroogeConfig),
}

impl ScenarioConfig {
    /// Parses a discriminated scenario document.
    pub fn from_json(src: &str) -> Result<ScenarioConfig, String> {
        Self::from_value(&json::parse(src)?, &[])
    }

    /// Parses a discriminated scenario document that is already a JSON
    /// value, ignoring the keys in `skip`.
    pub fn from_value(v: &json::Value, skip: &[&str]) -> Result<ScenarioConfig, String> {
        let json::Value::Obj(_) = v else {
            return Err("scenario config must be a JSON object".to_string());
        };
        match v.get("scenario").and_then(|s| s.as_str()) {
            Some(kind) => Self::of_kind(kind, v, skip),
            None => Err("missing 'scenario' (\"sram\" or \"scrooge\")".to_string()),
        }
    }

    /// Parses the document `v` as a `kind` scenario, ignoring the keys in
    /// `skip`. Its `"scenario"` key is optional, but must name `kind` if
    /// present.
    pub fn of_kind(kind: &str, v: &json::Value, skip: &[&str]) -> Result<ScenarioConfig, String> {
        match kind {
            "sram" => Ok(ScenarioConfig::Sram(SramScenarioConfig::from_value(
                v, skip,
            )?)),
            "scrooge" => Ok(ScenarioConfig::Scrooge(ScroogeConfig::from_value(v, skip)?)),
            other => Err(format!(
                "unknown scenario '{other}' (expected \"sram\" or \"scrooge\")"
            )),
        }
    }

    /// Applies command-line overrides to the rows of the config's field
    /// table: `value_of(flag)` is the value given for a row's flag.
    pub fn apply_flags(&mut self, value_of: impl Fn(&str) -> Option<String>) -> Result<(), String> {
        match self {
            ScenarioConfig::Sram(c) => fields::apply_flags(SramScenarioConfig::FIELDS, c, value_of),
            ScenarioConfig::Scrooge(c) => fields::apply_flags(ScroogeConfig::FIELDS, c, value_of),
        }
    }
}

/// The table parse of one scenario kind; its `"scenario"` key, if
/// present, must name `kind`.
fn parse_kind<C: Default>(
    table: &[fields::Field<C>],
    v: &json::Value,
    skip: &[&str],
    kind: &str,
) -> Result<C, String> {
    match v.get("scenario") {
        Some(s) if s.as_str() != Some(kind) => Err(format!("'scenario' must be \"{kind}\" here")),
        _ => fields::parse(table, v, &[skip, &["scenario"]].concat()),
    }
}

/// An array needs at least one bank of either kind.
fn check_banks(cache_banks: usize, rob_banks: usize) -> Result<(), String> {
    if cache_banks + rob_banks == 0 {
        return Err("need at least one bank (cache_banks + rob_banks >= 1)".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SramScenarioConfig::default().validate().unwrap();
        ScroogeConfig::default().validate().unwrap();
    }

    #[test]
    fn empty_objects_parse_to_defaults() {
        assert_eq!(
            SramScenarioConfig::from_json("{}").unwrap(),
            SramScenarioConfig::default()
        );
        assert_eq!(
            ScroogeConfig::from_json("{}").unwrap(),
            ScroogeConfig::default()
        );
    }

    #[test]
    fn discriminator_routes_and_is_required() {
        let sram = ScenarioConfig::from_json("{\"scenario\":\"sram\",\"cache_banks\":2}").unwrap();
        assert!(matches!(sram, ScenarioConfig::Sram(ref c) if c.cache_banks == 2));
        let scrooge = ScenarioConfig::from_json("{\"scenario\":\"scrooge\",\"racks\":1}").unwrap();
        assert!(matches!(scrooge, ScenarioConfig::Scrooge(ref c) if c.racks == 1));
        assert!(ScenarioConfig::from_json("{}")
            .unwrap_err()
            .contains("scenario"));
        assert!(ScenarioConfig::from_json("{\"scenario\":\"x\"}")
            .unwrap_err()
            .contains("unknown scenario"));
        // The per-type parsers reject a mismatched discriminator.
        assert!(SramScenarioConfig::from_json("{\"scenario\":\"scrooge\"}").is_err());
    }

    #[test]
    fn unknown_keys_and_hostile_counts_are_rejected() {
        assert!(SramScenarioConfig::from_json("{\"cache_bankz\":1}")
            .unwrap_err()
            .contains("unknown key"));
        assert!(ScroogeConfig::from_json("{\"racks\":1e30}").is_err());
        assert!(ScroogeConfig::from_json("{\"racks\":-1}").is_err());
        assert!(SramScenarioConfig::from_json("{\"reads\":2.5}").is_err());
        assert!(SramScenarioConfig::from_json("{\"cache_banks\":99999999}").is_err());
        assert!(SramScenarioConfig::from_json("{\"offsets_mv\":[1e999]}").is_err());
        assert!(SramScenarioConfig::from_json("not json").is_err());
        assert!(SramScenarioConfig::from_json("[1,2]").is_err());
    }

    #[test]
    fn skip_keys_pass_through() {
        let v = json::parse("{\"scenario\":\"sram\",\"deadline_ms\":50,\"seed\":7}").unwrap();
        let cfg = ScenarioConfig::from_value(&v, &["deadline_ms"]).unwrap();
        assert!(matches!(cfg, ScenarioConfig::Sram(ref c) if c.seed == 7));
        // ...but without skip, the service-level key is unknown.
        assert!(ScenarioConfig::from_value(&v, &[]).is_err());
    }

    #[test]
    fn scrooge_inherits_fleet_bounds() {
        assert!(ScroogeConfig::from_json("{\"workload\":\"no-such\"}")
            .unwrap_err()
            .contains("unknown workload"));
        assert!(ScroogeConfig::from_json("{\"racks\":0}").is_err());
        assert!(ScroogeConfig::from_json("{\"epoch_insts\":0}").is_err());
    }

    #[test]
    fn search_space_bounds_hold() {
        assert!(ScroogeConfig::from_json("{\"offset_min_mv\":5}").is_err());
        assert!(ScroogeConfig::from_json("{\"offset_steps\":1}").is_err());
        assert!(ScroogeConfig::from_json("{\"freq_min\":0}").is_err());
        assert!(ScroogeConfig::from_json("{\"freq_min\":1.5}").is_err());
        assert!(ScroogeConfig::from_json("{\"refine_rounds\":99}").is_err());
    }
}
