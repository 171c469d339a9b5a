//! Endpoint schemas: strict validation of JSON request bodies into typed
//! job specs, execution over the workspace engines, and deterministic
//! JSON serialisation of the results.
//!
//! Validation is strict in the same spirit as `suit-cli`'s argument
//! handling: unknown fields, wrong types, unknown workload/CPU/strategy
//! names and zero instruction budgets are all `400` errors with a
//! structured message — never silently ignored, never a panic.
//!
//! Serialisation is a pure function of the result values: floats are
//! written with Rust's shortest round-trip `Display` (deterministic
//! across platforms) and non-finite values map to `null`, so a batch
//! response is byte-identical to serialising the equivalent direct
//! `suit-sim` API call — the loopback e2e test pins this at several
//! worker-thread counts.

use std::time::Instant;

use suit_core::StrategyKey;
use suit_exec::Threads;
use suit_faults::inject::Campaign;
use suit_faults::vmin::ChipVminModel;
use suit_hw::{CpuModel, UndervoltLevel};
use suit_isa::TABLE1;
use suit_rng::SuitRng;
use suit_scenarios::ScenarioConfig;
use suit_sim::engine::{run_stream, simulate, SimConfig, MAX_DOMAIN_CORES};
use suit_sim::experiment::{run_table6, RowResult};
use suit_sim::result::RunResult;
use suit_telemetry::fields::Codec as _;
use suit_telemetry::json::{escape, json_num, parse, Value};
use suit_telemetry::{fields, Telemetry};
use suit_trace::{profile, WorkloadProfile};

use crate::tracestore::StoredTrace;

/// A request that failed validation (`400`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest(pub String);

/// Why a job did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The request's deadline expired before or during execution (`408`).
    DeadlineExpired,
}

/// A wall-clock deadline, checked only where [`execute`] says: before a
/// job starts, before each point of a workload batch or `simulate-trace`,
/// and after the whole run of a table6 batch, a fault campaign or a
/// scenario. Nothing checks it between simulation bursts, so a running
/// simulation is never cut short. `None` never expires.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(pub Option<Instant>);

impl Deadline {
    /// A deadline `ms` milliseconds from now (`None` → never expires).
    pub fn after_ms(ms: Option<u64>) -> Self {
        Deadline(ms.map(|m| Instant::now() + std::time::Duration::from_millis(m)))
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
    }
}

/// One validated compute job, ready to run in a job slot.
#[derive(Debug, Clone)]
pub enum Job {
    /// `POST /v1/simulate`: a single workload point (boxed to keep the
    /// enum variants close in size).
    Simulate(Box<SimPoint>),
    /// `POST /v1/batch`: a sweep fanned out over `suit-exec`.
    Batch(BatchSpec),
    /// `POST /v1/faults`: a fault-injection campaign.
    Faults(FaultsSpec),
    /// `POST /v1/simulate-trace`: streamed replay of a stored trace,
    /// one point per strategy fanned out over `suit-exec`.
    SimulateTrace(Box<TraceJob>),
    /// `POST /v1/scenario`: an SRAM fault-domain or Scrooge
    /// attacker-economics campaign over `suit-scenarios`.
    Scenario(Box<ScenarioConfig>),
}

/// A single simulation point (the CLI `simulate` surface as JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct SimPoint {
    /// Workload name (see `suit-cli list`); empty in a batch template.
    pub workload: String,
    /// CPU model.
    pub cpu: CpuModel,
    /// Strategy.
    pub strategy: StrategyKey,
    /// Undervolt level.
    pub level: UndervoltLevel,
    /// Cores sharing the DVFS domain.
    pub cores: usize,
    /// Optional instruction cap.
    pub insts: Option<u64>,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for SimPoint {
    fn default() -> Self {
        SimPoint {
            workload: String::new(),
            cpu: CpuModel::xeon_4208(),
            strategy: StrategyKey::FreqVolt,
            level: UndervoltLevel::Mv97,
            cores: 1,
            insts: None,
            seed: 0x5017,
        }
    }
}

impl SimPoint {
    fields! {
        /// The point's field table: `/v1/simulate`, the `/v1/batch`
        /// template and `suit-cli simulate|profile` flags.
        pub const FIELDS: [SimPoint] = [
            cores flag "--cores": int(1, MAX_DOMAIN_CORES),
            cpu flag "--cpu": key(CpuModel::key, &CpuModel::KEYS),
            insts flag "--insts": opt_int(1, u64::MAX),
            level as "offset" flag "--offset": num_key(UndervoltLevel::key, &UndervoltLevel::KEYS),
            seed flag "--seed": int(0, u64::MAX),
            strategy flag "--strategy": key(StrategyKey::key, &StrategyKey::KEYS),
            workload: text(point_workload),
        ];
    }

    /// This point's simulation configuration.
    pub fn config(&self) -> SimConfig {
        SimConfig {
            cores: self.cores,
            seed: self.seed,
            max_insts: self.insts,
            ..SimConfig::for_point(&self.cpu, self.strategy, self.level)
        }
    }

    /// Simulates `p` at this point with `seed`.
    pub fn simulate(&self, p: &WorkloadProfile, seed: u64) -> RunResult {
        let cfg = SimConfig {
            seed,
            ..self.config()
        };
        simulate(&self.cpu, p, &cfg)
    }
}

/// A point's workload: a profile name, or empty for none.
fn point_workload(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Ok(());
    }
    profile::check_name(name)
}

/// The Table 6 sweep of `/v1/batch` (`{"sweep":"table6"}`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table6Spec {
    /// Per-workload instruction cap.
    pub max_insts: Option<u64>,
}

impl Table6Spec {
    fields! {
        /// The sweep's field table.
        pub const FIELDS: [Table6Spec] = [max_insts: opt_int(1, u64::MAX)];
    }
}

/// A batch sweep: either the full Table 6 harness or a workload list.
#[derive(Debug, Clone)]
pub enum BatchSpec {
    /// The full Table 6 sweep, optionally capped.
    Table6(Table6Spec),
    /// An explicit workload list sharing one configuration template.
    /// Job `i` simulates `workloads[i]` with seed `fork(i)` of `seed`,
    /// so the response is byte-identical at any worker-thread count.
    Workloads {
        /// Workload names (or the expansion of `"all"`).
        workloads: Vec<String>,
        /// The shared configuration template (its `workload` is unused;
        /// boxed to keep the enum variants close in size).
        template: Box<SimPoint>,
    },
}

/// The validated body of `POST /v1/simulate-trace` — everything but the
/// stored trace itself, which the server resolves from the trace store
/// by ID before running a [`TraceJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Content-addressed trace ID from `POST /v1/trace` (32 hex digits).
    pub trace: String,
    /// CPU model.
    pub cpu: CpuModel,
    /// Strategies to replay, one engine run each. `e` (closed-form
    /// emulation) needs an analytic workload profile and is rejected.
    pub strategies: Vec<StrategyKey>,
    /// Undervolt level.
    pub level: UndervoltLevel,
    /// Optional instruction cap per replay.
    pub insts: Option<u64>,
    /// Root seed; replay `i` runs with `fork(i)`.
    pub seed: u64,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            trace: String::new(),
            cpu: CpuModel::xeon_4208(),
            strategies: vec![StrategyKey::FreqVolt],
            level: UndervoltLevel::Mv97,
            insts: None,
            seed: 0x5017,
        }
    }
}

impl TraceSpec {
    fields! {
        /// The replay request's field table.
        pub const FIELDS: [TraceSpec] = [
            cpu: key(CpuModel::key, &CpuModel::KEYS),
            insts: opt_int(1, u64::MAX),
            level as "offset": num_key(UndervoltLevel::key, &UndervoltLevel::KEYS),
            seed: int(0, u64::MAX),
            strategies: keys(StrategyKey::key, &StrategyKey::ENGINE_KEYS),
            trace: text(trace_id),
        ];
    }
}

/// A trace ID as `POST /v1/trace` mints it, or empty for none.
fn trace_id(id: &str) -> Result<(), String> {
    let hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
    if id.is_empty() || (id.len() == 32 && id.bytes().all(hex)) {
        return Ok(());
    }
    Err("field 'trace' must be a 32-hex-digit trace ID (from POST /v1/trace)".to_string())
}

/// A trace replay job: the validated spec plus the stored container it
/// resolved to (shared bytes, so clones are cheap).
#[derive(Debug, Clone)]
pub struct TraceJob {
    /// The validated request.
    pub spec: TraceSpec,
    /// The stored trace the ID resolved to.
    pub stored: StoredTrace,
}

/// Upper bound on cores in a fault campaign's sampled chip.
pub const MAX_CHIP_CORES: usize = 256;

/// A fault-campaign request (the Table 1 sweep surface as JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsSpec {
    /// Cores in the sampled chip.
    pub cores: usize,
    /// Per-core Vmin variation sigma, mV.
    pub sigma_mv: f64,
    /// Campaign seed (also seeds the chip sample).
    pub seed: u64,
    /// Executions per (combination, instruction).
    pub executions: u32,
}

impl Default for FaultsSpec {
    fn default() -> Self {
        FaultsSpec {
            cores: 4,
            sigma_mv: 5.0,
            seed: 0x5017,
            executions: 10_000,
        }
    }
}

impl FaultsSpec {
    fields! {
        /// The campaign's field table.
        pub const FIELDS: [FaultsSpec] = [
            cores: int(1, MAX_CHIP_CORES),
            executions: int(1, 10_000_000),
            seed: int(0, u64::MAX),
            sigma_mv: real_lt(0.0, f64::INFINITY),
        ];
    }
}

/// Parses a request body, rejecting any non-finite number anywhere in
/// it, and peels off the service-level `deadline_ms`. The in-tree JSON
/// parser maps overflow literals like `1e999` onto ±∞ (as
/// `f64::from_str` does), and JSON has no representation for
/// NaN/Infinity — so a body smuggling one can never round-trip and is a
/// structured `400` here, before any field validation sees it.
fn parse_body(body: &str) -> Result<(Value, Option<u64>), BadRequest> {
    let v = parse(body).map_err(|e| BadRequest(format!("invalid JSON body: {e}")))?;
    reject_non_finite(&v)?;
    let deadline = fields::int(0, u64::MAX);
    let deadline_ms = v
        .get("deadline_ms")
        .map(|d| deadline.decode("deadline_ms", d));
    Ok((v, deadline_ms.transpose().map_err(BadRequest)?))
}

fn reject_non_finite(v: &Value) -> Result<(), BadRequest> {
    match v {
        Value::Num(n) if !n.is_finite() => Err(BadRequest(
            "non-finite number in request body (JSON cannot represent NaN or Infinity)".into(),
        )),
        Value::Arr(items) => items.iter().try_for_each(reject_non_finite),
        Value::Obj(pairs) => pairs.iter().try_for_each(|(_, v)| reject_non_finite(v)),
        _ => Ok(()),
    }
}

/// The table parse of a request body.
fn parse_fields<C: Default>(
    table: &[fields::Field<C>],
    v: &Value,
    skip: &[&str],
) -> Result<C, BadRequest> {
    fields::parse(table, v, skip).map_err(BadRequest)
}

/// Validates the body of `POST /v1/simulate`.
pub fn parse_simulate(body: &str) -> Result<(Job, Option<u64>), BadRequest> {
    let (v, deadline_ms) = parse_body(body)?;
    let point: SimPoint = parse_fields(SimPoint::FIELDS, &v, &["deadline_ms"])?;
    if point.workload.is_empty() {
        return Err(BadRequest("missing field 'workload'".into()));
    }
    Ok((Job::Simulate(Box::new(point)), deadline_ms))
}

/// Validates the body of `POST /v1/batch`. Each mode takes only its own
/// keys: `max_insts` with the Table 6 sweep, the point fields with a
/// workload list; the other mode's keys are a `400`.
pub fn parse_batch(body: &str) -> Result<(Job, Option<u64>), BadRequest> {
    let (v, deadline_ms) = parse_body(body)?;
    let spec = match v.get("sweep") {
        Some(Value::Str(sweep)) if sweep == "table6" => {
            if v.get("workloads").is_some() {
                return Err(BadRequest(
                    "'sweep' and 'workloads' are mutually exclusive".into(),
                ));
            }
            let skip = ["deadline_ms", "sweep"];
            BatchSpec::Table6(parse_fields(Table6Spec::FIELDS, &v, &skip)?)
        }
        Some(Value::Str(other)) => {
            return Err(BadRequest(format!(
                "unknown sweep '{other}' (expected table6)"
            )))
        }
        Some(_) => return Err(BadRequest("field 'sweep' must be a string".into())),
        None => {
            let workloads: Vec<String> = match v.get("workloads") {
                Some(Value::Str(s)) if s == "all" => {
                    profile::all().iter().map(|p| p.name.to_string()).collect()
                }
                Some(Value::Arr(items)) => items
                    .iter()
                    .map(|item| match item {
                        Value::Str(name) => profile::check_name(name).map(|()| name.clone()),
                        _ => Err("field 'workloads' must be an array of names".to_string()),
                    })
                    .collect::<Result<_, _>>()
                    .map_err(BadRequest)?,
                Some(_) => {
                    return Err(BadRequest(
                        "field 'workloads' must be an array of names or \"all\"".into(),
                    ))
                }
                None => {
                    return Err(BadRequest(
                        "missing field 'workloads' (or \"sweep\":\"table6\")".into(),
                    ))
                }
            };
            if workloads.is_empty() {
                return Err(BadRequest("field 'workloads' must not be empty".into()));
            }
            let skip = ["deadline_ms", "workloads"];
            let template = Box::new(parse_fields(SimPoint::FIELDS, &v, &skip)?);
            BatchSpec::Workloads {
                workloads,
                template,
            }
        }
    };
    Ok((Job::Batch(spec), deadline_ms))
}

/// Validates the body of `POST /v1/simulate-trace` into a [`TraceSpec`].
/// The trace ID is syntax-checked here; resolving it against the store
/// (and the `404` for an unknown ID) is the server's job.
pub fn parse_simulate_trace(body: &str) -> Result<(TraceSpec, Option<u64>), BadRequest> {
    let (mut v, deadline_ms) = parse_body(body)?;
    // `"strategy": k` is shorthand for `"strategies": [k]`.
    if let Value::Obj(pairs) = &mut v {
        if let Some(i) = pairs.iter().position(|(k, _)| k == "strategy") {
            if pairs.iter().any(|(k, _)| k == "strategies") {
                return Err(BadRequest(
                    "'strategy' and 'strategies' are mutually exclusive".into(),
                ));
            }
            let (_, one) = pairs.remove(i);
            pairs.push(("strategies".into(), Value::Arr(vec![one])));
        }
    }
    let spec: TraceSpec = parse_fields(TraceSpec::FIELDS, &v, &["deadline_ms"])?;
    if spec.trace.is_empty() {
        return Err(BadRequest("missing field 'trace'".into()));
    }
    Ok((spec, deadline_ms))
}

/// Validates the body of `POST /v1/faults`.
pub fn parse_faults(body: &str) -> Result<(Job, Option<u64>), BadRequest> {
    let (v, deadline_ms) = parse_body(body)?;
    let spec = parse_fields(FaultsSpec::FIELDS, &v, &["deadline_ms"])?;
    Ok((Job::Faults(spec), deadline_ms))
}

/// Validates the body of `POST /v1/scenario`. Field validation lives in
/// `suit-scenarios` itself (the CLI and the service share one config
/// document, discriminated by the required `"scenario"` key); only the
/// service-level `deadline_ms` field is peeled off here.
pub fn parse_scenario(body: &str) -> Result<(Job, Option<u64>), BadRequest> {
    let (v, deadline_ms) = parse_body(body)?;
    let cfg = ScenarioConfig::from_value(&v, &["deadline_ms"]).map_err(BadRequest)?;
    Ok((Job::Scenario(Box::new(cfg)), deadline_ms))
}

/// Runs a validated job. Every fan-out inside it goes over [`suit_exec`]
/// with `threads`, passed on unchanged. The deadline is checked before
/// the job starts; workload batches and `simulate-trace` check it again
/// before each fan-out unit, and the table6 batch, faults and scenario
/// jobs once more after the whole run. `simulate` is checked only before
/// it starts. An expired check answers [`ExecError::DeadlineExpired`];
/// nothing interrupts a simulation already running.
pub fn execute(job: &Job, threads: Threads, deadline: Deadline) -> Result<String, ExecError> {
    if deadline.expired() {
        return Err(ExecError::DeadlineExpired);
    }
    match job {
        Job::Simulate(point) => Ok(format!(
            "{{\"result\":{}}}",
            run_result_json(&point.simulate(workload(&point.workload), point.seed))
        )),
        Job::Batch(BatchSpec::Table6(spec)) => {
            let rows = run_table6(threads, spec.max_insts);
            if deadline.expired() {
                return Err(ExecError::DeadlineExpired);
            }
            Ok(batch_table6_json(&rows))
        }
        Job::Batch(BatchSpec::Workloads {
            workloads,
            template,
        }) => {
            let root = SuitRng::seed_from_u64(template.seed);
            let results = suit_exec::run(workloads.len(), threads, |i| {
                if deadline.expired() {
                    return None;
                }
                Some(template.simulate(workload(&workloads[i]), root.fork(i as u64).root_seed()))
            });
            let results: Option<Vec<RunResult>> = results.into_iter().collect();
            match results {
                None => Err(ExecError::DeadlineExpired),
                Some(results) => Ok(batch_workloads_json(&results)),
            }
        }
        Job::Faults(spec) => {
            let chip = ChipVminModel::sample(spec.cores, spec.sigma_mv, spec.seed);
            let mut campaign = Campaign::standard(chip, spec.seed);
            campaign.executions = spec.executions;
            let report = campaign.run(threads, &Telemetry::off());
            if deadline.expired() {
                return Err(ExecError::DeadlineExpired);
            }
            let table1: Vec<String> = TABLE1
                .iter()
                .map(|row| {
                    let op = row.opcode;
                    let first = report.first_fault_offset_mv(op);
                    format!(
                        "{{\"opcode\":{},\"faults\":{},\"first_fault_mv\":{}}}",
                        escape(op.mnemonic()),
                        report.faults(op),
                        json_num(first)
                    )
                })
                .collect();
            let ranking: Vec<String> = report
                .ranking()
                .iter()
                .map(|op| escape(op.mnemonic()))
                .collect();
            Ok(format!(
                "{{\"cores\":{},\"executions\":{},\"table1\":[{}],\"ranking\":[{}]}}",
                spec.cores,
                spec.executions,
                table1.join(","),
                ranking.join(",")
            ))
        }
        Job::Scenario(cfg) => {
            let report = cfg
                .run(threads, &Telemetry::off())
                .expect("scenario config validated at parse time");
            if deadline.expired() {
                return Err(ExecError::DeadlineExpired);
            }
            Ok(report.to_json())
        }
        Job::SimulateTrace(tj) => {
            let root = SuitRng::seed_from_u64(tj.spec.seed);
            let results = suit_exec::run(tj.spec.strategies.len(), threads, |i| {
                if deadline.expired() {
                    return None;
                }
                Some(replay_trace(
                    tj,
                    tj.spec.strategies[i],
                    root.fork(i as u64).root_seed(),
                ))
            });
            let results: Option<Vec<RunResult>> = results.into_iter().collect();
            match results {
                None => Err(ExecError::DeadlineExpired),
                Some(results) => {
                    let items: Vec<String> = tj
                        .spec
                        .strategies
                        .iter()
                        .zip(&results)
                        .map(|(s, r)| {
                            format!(
                                "{{\"strategy\":{},\"result\":{}}}",
                                escape(s.key()),
                                run_result_json(r)
                            )
                        })
                        .collect();
                    Ok(format!(
                        "{{\"trace\":{},\"results\":[{}]}}",
                        trace_info_json(&tj.spec.trace, &tj.stored),
                        items.join(",")
                    ))
                }
            }
        }
    }
}

/// Replays one stored trace under one strategy, streaming bursts out of
/// the container through [`run_stream`] — replay memory is O(chunk),
/// never O(trace). The container was fully decoded once at upload, so
/// opening and streaming it again cannot fail.
fn replay_trace(tj: &TraceJob, strategy: StrategyKey, seed: u64) -> RunResult {
    let reader = suit_store::open_bytes(&tj.stored.bytes).expect("trace validated at upload");
    let meta = reader.meta().clone();
    let cfg = SimConfig {
        seed,
        max_insts: tj.spec.insts,
        ..SimConfig::for_point(&tj.spec.cpu, strategy, tj.spec.level)
    };
    run_stream(&tj.spec.cpu, &meta, reader.bursts(), &cfg)
}

/// The deterministic trace summary shared by the upload response,
/// `GET /v1/trace/<id>` and the `/v1/simulate-trace` envelope.
pub fn trace_info_json(id: &str, t: &StoredTrace) -> String {
    format!(
        "{{\"id\":{},\"workload\":{},\"ipc\":{},\"total_insts\":{},\"bursts\":{},\"chunks\":{},\
         \"bytes\":{}}}",
        escape(id),
        escape(&t.workload),
        json_num(t.ipc),
        t.total_insts,
        t.bursts,
        t.chunks,
        t.bytes.len()
    )
}

/// The profile of a workload name validated at parse time.
fn workload(name: &str) -> &'static WorkloadProfile {
    profile::by_name(name).expect("workload validated at parse time")
}

/// Serialises one [`RunResult`] — raw aggregates plus the paper's
/// derived metrics — deterministically.
pub fn run_result_json(r: &RunResult) -> String {
    format!(
        "{{\"workload\":{},\"perf\":{},\"power\":{},\"efficiency\":{},\"residency\":{},\
         \"duration_ps\":{},\"baseline_ps\":{},\"energy_rel\":{},\"time_e_ps\":{},\
         \"time_cf_ps\":{},\"time_cv_ps\":{},\"time_stall_ps\":{},\"events\":{},\
         \"exceptions\":{},\"timer_fires\":{},\"thrash_hits\":{}}}",
        escape(&r.workload),
        json_num(r.perf()),
        json_num(r.power()),
        json_num(r.efficiency()),
        json_num(r.residency()),
        r.duration.as_picos(),
        r.baseline_duration.as_picos(),
        json_num(r.energy_rel),
        r.time_e.as_picos(),
        r.time_cf.as_picos(),
        r.time_cv.as_picos(),
        r.time_stall.as_picos(),
        r.events,
        r.exceptions,
        r.timer_fires,
        r.thrash_hits
    )
}

/// Serialises a list of per-workload results (`/v1/batch` workloads mode).
pub fn batch_workloads_json(results: &[RunResult]) -> String {
    let items: Vec<String> = results.iter().map(run_result_json).collect();
    format!("{{\"results\":[{}]}}", items.join(","))
}

/// Serialises the Table 6 sweep (`/v1/batch` `"sweep":"table6"` mode) —
/// the byte-identity anchor for the loopback e2e test against a direct
/// [`run_table6`] call.
pub fn batch_table6_json(rows: &[RowResult]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|row| {
            let per: Vec<String> = row.per_workload.iter().map(run_result_json).collect();
            let no_simd: Vec<String> = row.no_simd.iter().map(run_result_json).collect();
            format!(
                "{{\"label\":{},\"offset_mv\":{},\"per_workload\":[{}],\"no_simd\":[{}]}}",
                escape(row.label),
                json_num(row.level.offset_mv()),
                per.join(","),
                no_simd.join(",")
            )
        })
        .collect();
    format!("{{\"sweep\":\"table6\",\"rows\":[{}]}}", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_body_validates_strictly() {
        for bad in [
            "",
            "not json",
            "[1,2]",
            "{}",
            "{\"workload\":\"no-such\"}",
            "{\"workload\":\"557.xz\",\"bogus\":1}",
            "{\"workload\":\"557.xz\",\"cpu\":\"z\"}",
            "{\"workload\":\"557.xz\",\"offset\":80}",
            "{\"workload\":\"557.xz\",\"strategy\":\"warp\"}",
            "{\"workload\":\"557.xz\",\"insts\":0}",
            "{\"workload\":\"557.xz\",\"insts\":-3}",
            "{\"workload\":\"557.xz\",\"seed\":1.5}",
            "{\"workload\":[\"557.xz\"]}",
        ] {
            assert!(parse_simulate(bad).is_err(), "accepted {bad:?}");
        }
        let (job, deadline) =
            parse_simulate("{\"workload\":\"557.xz\",\"insts\":1000000,\"deadline_ms\":50}")
                .unwrap();
        assert_eq!(deadline, Some(50));
        match job {
            Job::Simulate(p) => {
                assert_eq!(p.workload, "557.xz");
                assert_eq!(p.insts, Some(1_000_000));
                assert_eq!(p.seed, 0x5017);
            }
            other => panic!("wrong job {other:?}"),
        }
    }

    #[test]
    fn batch_body_accepts_both_modes() {
        let (job, _) = parse_batch("{\"sweep\":\"table6\",\"max_insts\":1000}").unwrap();
        assert!(matches!(
            job,
            Job::Batch(BatchSpec::Table6(Table6Spec {
                max_insts: Some(1000)
            }))
        ));
        let (job, _) = parse_batch("{\"workloads\":[\"557.xz\",\"Nginx\"],\"insts\":5}").unwrap();
        match job {
            Job::Batch(BatchSpec::Workloads { workloads, .. }) => {
                assert_eq!(workloads, ["557.xz", "Nginx"]);
            }
            other => panic!("wrong job {other:?}"),
        }
        let (job, _) = parse_batch("{\"workloads\":\"all\"}").unwrap();
        match job {
            Job::Batch(BatchSpec::Workloads { workloads, .. }) => {
                assert_eq!(workloads.len(), profile::all().len());
            }
            other => panic!("wrong job {other:?}"),
        }
        for bad in [
            "{\"sweep\":\"table9\"}",
            "{\"sweep\":\"table6\",\"workloads\":[\"557.xz\"]}",
            "{\"workloads\":[]}",
            "{\"workloads\":[\"no-such\"]}",
            "{\"workloads\":[1]}",
            "{}",
        ] {
            assert!(parse_batch(bad).is_err(), "accepted {bad:?}");
        }
        // A key of the other mode is rejected, not silently dropped.
        for (bad, key) in [
            (
                "{\"workloads\":[\"557.xz\"],\"max_insts\":1000}",
                "max_insts",
            ),
            ("{\"sweep\":\"table6\",\"insts\":1000}", "insts"),
        ] {
            let err = parse_batch(bad).unwrap_err().0;
            assert!(
                err.starts_with(&format!("unknown key '{key}'")),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn workload_batch_is_thread_count_invariant_and_forked() {
        let (job, _) = parse_batch(
            "{\"workloads\":[\"557.xz\",\"Nginx\",\"502.gcc\"],\"insts\":20000000,\"seed\":7}",
        )
        .unwrap();
        let one = execute(&job, Threads::Fixed(1), Deadline(None)).unwrap();
        let four = execute(&job, Threads::Fixed(4), Deadline(None)).unwrap();
        assert_eq!(one, four, "batch diverged across thread counts");
        // And it really is per-job fork(i) seeding: job 0 must match a
        // direct engine call with the forked seed.
        let root = SuitRng::seed_from_u64(7);
        let (Job::Batch(BatchSpec::Workloads { template, .. }), _) =
            parse_batch("{\"workloads\":[\"557.xz\"],\"insts\":20000000,\"seed\":7}").unwrap()
        else {
            unreachable!()
        };
        let direct = template.simulate(workload("557.xz"), root.fork(0).root_seed());
        assert!(one.contains(&run_result_json(&direct)));
    }

    #[test]
    fn simulate_trace_body_validates_strictly() {
        let id = "0123456789abcdef0123456789abcdef";
        for bad in [
            "".to_string(),
            "{}".to_string(),
            "{\"trace\":\"short\"}".to_string(),
            format!("{{\"trace\":\"{}\"}}", id.to_uppercase()),
            format!("{{\"trace\":\"{id}\",\"strategy\":\"e\"}}"),
            format!("{{\"trace\":\"{id}\",\"strategy\":\"warp\"}}"),
            format!("{{\"trace\":\"{id}\",\"strategies\":[]}}"),
            format!("{{\"trace\":\"{id}\",\"strategies\":[\"fv\",\"fv\"]}}"),
            format!("{{\"trace\":\"{id}\",\"strategies\":[\"fv\"],\"strategy\":\"f\"}}"),
            format!("{{\"trace\":\"{id}\",\"strategies\":[1]}}"),
            format!("{{\"trace\":\"{id}\",\"insts\":0}}"),
            format!("{{\"trace\":\"{id}\",\"cores\":2}}"),
            format!("{{\"trace\":\"{id}\",\"cpu\":\"z\"}}"),
        ] {
            assert!(parse_simulate_trace(&bad).is_err(), "accepted {bad:?}");
        }
        let (spec, deadline) = parse_simulate_trace(&format!(
            "{{\"trace\":\"{id}\",\"strategies\":[\"fv\",\"adaptive\"],\"seed\":9,\
             \"deadline_ms\":50}}"
        ))
        .unwrap();
        assert_eq!(deadline, Some(50));
        assert_eq!(spec.trace, id);
        assert_eq!(
            spec.strategies,
            [StrategyKey::FreqVolt, StrategyKey::Adaptive]
        );
        assert_eq!(spec.seed, 9);
        // Defaults: single fv replay, paper seed.
        let (spec, _) = parse_simulate_trace(&format!("{{\"trace\":\"{id}\"}}")).unwrap();
        assert_eq!(spec.strategies, [StrategyKey::FreqVolt]);
        assert_eq!(spec.seed, 0x5017);
    }

    #[test]
    fn expired_deadline_aborts_before_work() {
        let (job, _) = parse_simulate("{\"workload\":\"557.xz\",\"insts\":1000000}").unwrap();
        let expired = Deadline(Some(Instant::now() - std::time::Duration::from_millis(1)));
        assert_eq!(
            execute(&job, Threads::Fixed(1), expired),
            Err(ExecError::DeadlineExpired)
        );
    }

    #[test]
    fn faults_response_lists_table1() {
        let (job, _) =
            parse_faults("{\"cores\":2,\"executions\":500,\"seed\":3,\"sigma_mv\":4.0}").unwrap();
        let body = execute(&job, Threads::Fixed(2), Deadline(None)).unwrap();
        let v = parse(&body).expect("valid JSON");
        let table = v.get("table1").and_then(Value::as_arr).unwrap();
        assert_eq!(table.len(), TABLE1.len());
        assert_eq!(
            table[0].get("opcode").and_then(Value::as_str),
            Some(TABLE1[0].opcode.mnemonic())
        );
        // Determinism across thread counts.
        let again = execute(&job, Threads::Fixed(1), Deadline(None)).unwrap();
        assert_eq!(body, again);
    }

    #[test]
    fn scenario_body_validates_and_is_thread_count_invariant() {
        for bad in [
            "",
            "{}",
            "[1,2]",
            "{\"scenario\":\"warp\"}",
            "{\"scenario\":\"sram\",\"bogus\":1}",
            "{\"scenario\":\"sram\",\"reads\":0}",
            "{\"scenario\":\"sram\",\"cache_banks\":99999999}",
            "{\"scenario\":\"scrooge\",\"offset_steps\":1}",
            "{\"scenario\":\"scrooge\",\"workload\":\"no-such\"}",
        ] {
            assert!(parse_scenario(bad).is_err(), "accepted {bad:?}");
        }
        let (job, deadline) = parse_scenario(
            "{\"scenario\":\"sram\",\"cache_banks\":2,\"rob_banks\":1,\"reads\":64,\
             \"offsets_mv\":[-120,-160],\"audit_len\":200,\"deadline_ms\":5000}",
        )
        .unwrap();
        assert_eq!(deadline, Some(5000));
        let one = execute(&job, Threads::Fixed(1), Deadline(None)).unwrap();
        let four = execute(&job, Threads::Fixed(4), Deadline(None)).unwrap();
        assert_eq!(one, four, "scenario diverged across thread counts");
        let v = parse(&one).expect("valid JSON");
        assert_eq!(v.get("scenario").and_then(Value::as_str), Some("sram"));
    }

    #[test]
    fn json_num_maps_non_finite_to_null() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NEG_INFINITY), "null");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn smuggled_non_finite_numbers_are_rejected_at_parse() {
        // `1e999` overflows f64 parsing to +∞; every validator must
        // refuse it with a structured 400 wherever it hides.
        for bad in [
            "{\"workload\":\"557.xz\",\"seed\":1e999}",
            "{\"workload\":\"557.xz\",\"insts\":-1e999}",
            "{\"workloads\":[\"557.xz\"],\"seed\":1e999}",
            "{\"sigma_mv\":1e999}",
            "{\"sigma_mv\":-1e999}",
        ] {
            let err = parse_simulate(bad)
                .err()
                .or_else(|| parse_batch(bad).err())
                .or_else(|| parse_faults(bad).err())
                .unwrap_or_else(|| panic!("accepted {bad:?}"));
            assert!(
                err.0.contains("non-finite") || err.0.contains("must be"),
                "wrong error for {bad:?}: {}",
                err.0
            );
        }
        // And the dedicated walker catches nesting the field checks miss.
        assert!(parse_faults("{\"sigma_mv\":1e999}").is_err());
        assert!(reject_non_finite(&parse("{\"a\":[1,[2,1e999]]}").unwrap()).is_err());
        assert!(reject_non_finite(&parse("{\"a\":[1,2.5]}").unwrap()).is_ok());
    }
}
